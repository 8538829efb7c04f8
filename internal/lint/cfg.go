package lint

// Control-flow graphs for the dataflow analyzers (lockstate and the
// determinism taint upgrade). The builder turns one function body into basic
// blocks of *executed-in-order* nodes: simple statements appear whole,
// composite statements contribute only their head parts (an if contributes
// its init and condition; a range contributes the RangeStmt node itself,
// standing for the per-iteration variable binding) while their bodies are
// distributed into successor blocks. Analyses therefore never see the same
// node twice, and shallowWalk visits exactly the parts of a node the block
// executes.
//
// Exits: every function has one Exit block. Return statements, falling off
// the end, and explicit panic(...) calls all edge to it; deferred calls
// (recorded in CFG.Defers, in source order) conceptually run on every path
// into Exit, normal or panicking, which is exactly the guarantee analyses
// like lockstate rely on when a deferred Unlock discharges an obligation.
// Calls that can panic mid-block are not given individual edges — for the
// may-analyses built here, the defer list at Exit already over-approximates
// them.

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"sort"
	"strings"
)

// Block is one basic block: nodes executed in order, then a jump to one of
// the successor blocks.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
	// Kind labels the block's origin for CFG dumps ("entry", "exit",
	// "if.then", "for.head", "select.case", ...).
	Kind string
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Entry, Exit *Block
	Blocks      []*Block
	// Defers lists every defer statement in the function, in source order.
	// Deferred calls run (in reverse order) on every path into Exit.
	Defers []*ast.DeferStmt
}

// cfgBuilder carries the construction state.
type cfgBuilder struct {
	cfg *CFG
	cur *Block // nil while the current point is unreachable

	// breaks/continues are the innermost-first stacks of jump targets.
	breaks    []jumpTarget
	continues []jumpTarget

	labels map[string]*labelInfo
	gotos  map[string][]*Block // unresolved forward gotos by label
}

// jumpTarget pairs a loop/switch/select with the block a break (or
// continue) jumps to; label is "" for unlabeled statements.
type jumpTarget struct {
	label string
	block *Block
}

type labelInfo struct {
	target *Block // goto/continue destination (set when the label is reached)
}

// BuildCFG constructs the CFG of one function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{},
		labels: map[string]*labelInfo{},
		gotos:  map[string][]*Block{},
	}
	b.cfg.Entry = b.newBlock("entry")
	b.cfg.Exit = b.newBlock("exit")
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	// Falling off the end returns.
	b.jump(b.cfg.Exit)
	// Unresolved gotos (labels in dead code, or malformed input under fuzz)
	// conservatively edge to Exit so the graph stays closed.
	for _, srcs := range b.gotos {
		for _, s := range srcs {
			addSucc(s, b.cfg.Exit)
		}
	}
	return b.cfg
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	bl := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, bl)
	return bl
}

// add appends a node to the current block, starting a fresh unreachable
// block if control cannot reach here (so dead statements are still visible
// to analyses that want them).
func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// jump ends the current block with an edge to target.
func (b *cfgBuilder) jump(target *Block) {
	if b.cur != nil {
		addSucc(b.cur, target)
	}
	b.cur = nil
}

func addSucc(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// startBlock begins a new block and, if the current block is live, links it.
func (b *cfgBuilder) startBlock(kind string) *Block {
	nb := b.newBlock(kind)
	if b.cur != nil {
		addSucc(b.cur, nb)
	}
	b.cur = nb
	return nb
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt lowers one statement. label is the enclosing label name, if the
// statement is the body of a LabeledStmt (so break/continue/goto resolve).
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// The label is a join point: goto targets it, continue/break inside
		// the labeled loop resolve through it.
		li := b.labels[s.Label.Name]
		if li == nil {
			li = &labelInfo{}
			b.labels[s.Label.Name] = li
		}
		lb := b.startBlock("label." + s.Label.Name)
		li.target = lb
		for _, src := range b.gotos[s.Label.Name] {
			addSucc(src, lb)
		}
		delete(b.gotos, s.Label.Name)
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cfg.Exit)

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.DeferStmt:
		b.cfg.Defers = append(b.cfg.Defers, s)
		b.add(s)

	case *ast.IfStmt:
		b.add(s.Init)
		b.add(s.Cond)
		head := b.cur
		after := b.newBlock("if.after")
		b.cur = nil
		thenB := b.newBlock("if.then")
		if head != nil {
			addSucc(head, thenB)
		}
		b.cur = thenB
		b.stmtList(s.Body.List)
		b.jump(after)
		if s.Else != nil {
			elseB := b.newBlock("if.else")
			if head != nil {
				addSucc(head, elseB)
			}
			b.cur = elseB
			b.stmt(s.Else, "")
			b.jump(after)
		} else if head != nil {
			addSucc(head, after)
		}
		b.cur = after

	case *ast.ForStmt:
		b.add(s.Init)
		head := b.startBlock("for.head")
		b.add(s.Cond)
		after := b.newBlock("for.after")
		post := b.newBlock("for.post")
		if s.Cond != nil {
			addSucc(head, after)
		}
		body := b.newBlock("for.body")
		addSucc(head, body)
		b.cur = body
		b.pushLoop(label, after, post)
		b.stmtList(s.Body.List)
		b.popLoop()
		b.jump(post)
		b.cur = post
		b.add(s.Post)
		b.jump(head)
		b.cur = after

	case *ast.RangeStmt:
		// The RangeStmt node stands for the per-iteration clause
		// "key, value := range X"; shallowWalk visits Key/Value/X only.
		head := b.startBlock("range.head")
		b.add(s)
		after := b.newBlock("range.after")
		addSucc(head, after) // range may be empty / exhausted
		body := b.newBlock("range.body")
		addSucc(head, body)
		b.cur = body
		b.pushLoop(label, after, head)
		b.stmtList(s.Body.List)
		b.popLoop()
		b.jump(head)
		b.cur = after

	case *ast.SwitchStmt:
		b.add(s.Init)
		b.add(s.Tag)
		b.switchClauses(s.Body.List, label, "switch")

	case *ast.TypeSwitchStmt:
		b.add(s.Init)
		b.add(s.Assign)
		b.switchClauses(s.Body.List, label, "typeswitch")

	case *ast.SelectStmt:
		// The SelectStmt node itself is the blocking point; each case's comm
		// statement executes in that case's block.
		b.add(s)
		head := b.cur
		after := b.newBlock("select.after")
		b.cur = nil
		b.breaks = append(b.breaks, jumpTarget{label, after})
		anyCase := false
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			anyCase = true
			kind := "select.case"
			if cc.Comm == nil {
				kind = "select.default"
			}
			cb := b.newBlock(kind)
			if head != nil {
				addSucc(head, cb)
			}
			b.cur = cb
			if cc.Comm != nil {
				b.stmt(cc.Comm, "")
			}
			b.stmtList(cc.Body)
			b.jump(after)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		if !anyCase && head != nil {
			// select{} blocks forever: no edge out except the conservative
			// one to after (keeps the graph closed for the solver).
			addSucc(head, after)
		}
		b.cur = after

	case *ast.GoStmt:
		b.add(s)

	default:
		// Assign, expr, send, incdec, decl, empty: straight-line.
		b.add(s)
		if isPanicCall(s) {
			// panic unwinds: the deferred calls run, then the frame exits.
			b.jump(b.cfg.Exit)
		}
	}
}

// switchClauses lowers the case clauses of a switch/type switch.
func (b *cfgBuilder) switchClauses(clauses []ast.Stmt, label, kind string) {
	head := b.cur
	after := b.newBlock(kind + ".after")
	b.cur = nil
	b.breaks = append(b.breaks, jumpTarget{label, after})
	hasDefault := false
	var caseBlocks []*Block
	var caseBodies [][]ast.Stmt
	for _, c := range clauses {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		ckind := kind + ".case"
		if cc.List == nil {
			hasDefault = true
			ckind = kind + ".default"
		}
		cb := b.newBlock(ckind)
		if head != nil {
			addSucc(head, cb)
		}
		for _, e := range cc.List {
			cb.Nodes = append(cb.Nodes, e)
		}
		caseBlocks = append(caseBlocks, cb)
		caseBodies = append(caseBodies, cc.Body)
	}
	for i, cb := range caseBlocks {
		b.cur = cb
		b.stmtList(caseBodies[i])
		// Fallthrough: edge to the next case's block.
		if ft := endsInFallthrough(caseBodies[i]); ft && i+1 < len(caseBlocks) {
			b.jump(caseBlocks[i+1])
		} else {
			b.jump(after)
		}
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	if !hasDefault && head != nil {
		addSucc(head, after)
	}
	b.cur = after
}

func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, jumpTarget{label, brk})
	b.continues = append(b.continues, jumpTarget{label, cont})
}

func (b *cfgBuilder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

// branch lowers break/continue/goto/fallthrough.
func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	b.add(s)
	name := ""
	if s.Label != nil {
		name = s.Label.Name
	}
	find := func(stack []jumpTarget) *Block {
		for i := len(stack) - 1; i >= 0; i-- {
			if name == "" || stack[i].label == name {
				return stack[i].block
			}
		}
		return nil
	}
	switch s.Tok {
	case token.BREAK:
		if t := find(b.breaks); t != nil {
			b.jump(t)
		} else {
			b.jump(b.cfg.Exit) // malformed input under fuzz: stay closed
		}
	case token.CONTINUE:
		if t := find(b.continues); t != nil {
			b.jump(t)
		} else {
			b.jump(b.cfg.Exit)
		}
	case token.GOTO:
		if li := b.labels[name]; li != nil && li.target != nil {
			b.jump(li.target)
		} else if b.cur != nil {
			// Forward goto: resolve when the label appears.
			b.gotos[name] = append(b.gotos[name], b.cur)
			b.cur = nil
		}
	case token.FALLTHROUGH:
		// Handled by switchClauses; nothing to do here.
	}
}

// isPanicCall reports whether the statement is an unconditional call to the
// built-in panic. Such a statement ends its block with an edge to Exit — the
// deferred calls still run, which is why Defers are applied on every path
// into Exit rather than only after returns.
func isPanicCall(s ast.Node) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// Reachable returns the blocks reachable from Entry, in index order.
func (c *CFG) Reachable() []*Block {
	seen := make([]bool, len(c.Blocks))
	stack := []*Block{c.Entry}
	seen[c.Entry.Index] = true
	for len(stack) > 0 {
		bl := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range bl.Succs {
			if !seen[s.Index] {
				seen[s.Index] = true
				stack = append(stack, s)
			}
		}
	}
	var out []*Block
	for _, bl := range c.Blocks {
		if seen[bl.Index] {
			out = append(out, bl)
		}
	}
	return out
}

// shallowWalk visits the parts of a CFG node that its block executes,
// without descending into nested function literals (their bodies run on
// another goroutine or at defer time) or into statement bodies that the
// builder distributed into other blocks (a RangeStmt's body, a SelectStmt's
// cases).
func shallowWalk(n ast.Node, f func(ast.Node) bool) {
	switch n := n.(type) {
	case *ast.RangeStmt:
		// The node itself is visible (it stands for the per-iteration
		// binding — the taint pass seeds on it), then its head parts.
		if !f(n) {
			return
		}
		if n.Key != nil {
			shallowWalk(n.Key, f)
		}
		if n.Value != nil {
			shallowWalk(n.Value, f)
		}
		shallowWalk(n.X, f)
		return
	case *ast.SelectStmt:
		// Blocking marker only; comm statements live in the case blocks.
		f(n)
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			f(n)         // visible as a value (closure allocation) ...
			return false // ... but its body belongs to another frame
		}
		return f(n)
	})
}

// Dump renders the CFG in a stable textual form for golden tests: one line
// per block with its kind, rendered nodes, and successor indices.
func (c *CFG) Dump(fset *token.FileSet) string {
	var sb strings.Builder
	for _, bl := range c.Blocks {
		fmt.Fprintf(&sb, "b%d %s:", bl.Index, bl.Kind)
		for _, n := range bl.Nodes {
			fmt.Fprintf(&sb, " [%s]", renderNode(fset, n))
		}
		if len(bl.Succs) > 0 {
			idx := make([]int, len(bl.Succs))
			for i, s := range bl.Succs {
				idx[i] = s.Index
			}
			sort.Ints(idx)
			sb.WriteString(" ->")
			for _, i := range idx {
				fmt.Fprintf(&sb, " b%d", i)
			}
		}
		sb.WriteByte('\n')
	}
	if len(c.Defers) > 0 {
		sb.WriteString("defers:")
		for _, d := range c.Defers {
			fmt.Fprintf(&sb, " [%s]", renderNode(fset, d))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// renderNode prints a node on one line (whitespace collapsed, truncated).
func renderNode(fset *token.FileSet, n ast.Node) string {
	var b strings.Builder
	switch n := n.(type) {
	case *ast.RangeStmt:
		b.WriteString("range ")
		if n.Key != nil {
			printNode(&b, fset, n.Key)
			if n.Value != nil {
				b.WriteString(", ")
				printNode(&b, fset, n.Value)
			}
			b.WriteString(" := ")
		}
		printNode(&b, fset, n.X)
	case *ast.SelectStmt:
		b.WriteString("select")
	default:
		printNode(&b, fset, n)
	}
	s := strings.Join(strings.Fields(b.String()), " ")
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return s
}

func printNode(b *strings.Builder, fset *token.FileSet, n ast.Node) {
	cfg := printer.Config{Mode: printer.RawFormat}
	_ = cfg.Fprint(b, fset, n)
}
