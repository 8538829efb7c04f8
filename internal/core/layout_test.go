package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/emu"
	"repro/internal/isa"
)

// TestLayoutBudget pins the memory layout the experiment matrix budgets
// for: the workload cache holds the timing traces of ~2.5M entries, 24 bytes
// each plus 8 per load or store (21% of entries), and tools that inspect
// values build full traces of 64-byte entries on demand. A field added to any of
// these re-budgets that cache and must update this test on purpose.
func TestLayoutBudget(t *testing.T) {
	if got := unsafe.Sizeof(emu.TraceEntry{}); got != 64 {
		t.Errorf("emu.TraceEntry is %d bytes, budget 64", got)
	}
	if got := unsafe.Sizeof(isa.Instruction{}); got != 16 {
		t.Errorf("isa.Instruction is %d bytes, budget 16", got)
	}
	var d Decoded
	perEntry := unsafe.Sizeof(d.deps[0]) + unsafe.Sizeof(d.ops[0]) + unsafe.Sizeof(d.pc[0]) // Sizeof never evaluates the index
	if perEntry > 24 {
		t.Errorf("timing trace spends %d bytes per entry, budget 24", perEntry)
	}
	if perMem := unsafe.Sizeof(d.ea[0]); perMem > 8 {
		t.Errorf("timing trace spends %d bytes per memory op, budget 8", perMem)
	}
}

// TestNoUnkeyedLayoutLiterals guards the field reorders behind the layout
// budget: an unkeyed isa.Instruction or emu.TraceEntry literal would
// silently bind its values to the wrong fields. go vet's composites check
// covers literals outside the declaring package; this also covers the
// declaring packages and the elided element types of slice literals.
func TestNoUnkeyedLayoutLiterals(t *testing.T) {
	root := filepath.Join("..", "..")
	guarded := map[string]string{
		"Instruction": "isa", // type name -> declaring package
		"TraceEntry":  "emu",
	}
	// guardedType names the guarded type a type expression denotes in a
	// file of package pkg, or "".
	guardedType := func(expr ast.Expr, pkg string) string {
		switch e := expr.(type) {
		case *ast.Ident:
			if guarded[e.Name] == pkg {
				return e.Name
			}
		case *ast.SelectorExpr:
			if x, ok := e.X.(*ast.Ident); ok && guarded[e.Sel.Name] == x.Name {
				return e.Sel.Name
			}
		}
		return ""
	}
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		checked++
		pkg := f.Name.Name
		unkeyed := func(lit *ast.CompositeLit, name string) {
			if len(lit.Elts) == 0 {
				return
			}
			if _, ok := lit.Elts[0].(*ast.KeyValueExpr); !ok {
				t.Errorf("%s: unkeyed %s literal", fset.Position(lit.Pos()), name)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || lit.Type == nil {
				return true
			}
			if name := guardedType(lit.Type, pkg); name != "" {
				unkeyed(lit, name)
				return true
			}
			// Slice, array and map literals may elide their element type.
			var elt ast.Expr
			switch ty := lit.Type.(type) {
			case *ast.ArrayType:
				elt = ty.Elt
			case *ast.MapType:
				elt = ty.Value
			}
			if name := guardedType(elt, pkg); name != "" {
				for _, e := range lit.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						e = kv.Value
					}
					if inner, ok := e.(*ast.CompositeLit); ok && inner.Type == nil {
						unkeyed(inner, name)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 100 {
		t.Fatalf("walked only %d Go files from %s; is the module root right?", checked, root)
	}
}
