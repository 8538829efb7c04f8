package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// compareFiles prints, for each workload, every end-to-end metric of two
// sets of runs, as median and quartiles, with a verdict under the
// benchmark's bounds; beside them it prints the per-layer metrics of the
// sets' traced runs, largest change first, so that a moved end-to-end
// metric can be traced to its layer. Runs pair up by seed; a seed run on
// one side only is listed and left out. The deterministic work counts of
// every pair must be identical.
func compareFiles(out io.Writer, beforePath, afterPath string) error {
	before, err := loadRecords(beforePath)
	if err != nil {
		return err
	}
	after, err := loadRecords(afterPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "before: %s, %d runs, %s\n", beforePath, len(before), envLine(before[0].Env))
	fmt.Fprintf(out, "after:  %s, %d runs, %s\n", afterPath, len(after), envLine(after[0].Env))
	for _, wl := range workloadNames() {
		plain := pairBySeed(before, after, wl, 0)
		e2e := &stats.Table{Headers: []string{"metric", "unit", "before median [q1, q3]", "after median [q1, q3]", "change", "bound", "verdict", "raw verdict"}}
		for _, d := range endToEnd {
			a, b := plain.values(d.Name, scaled)
			if len(a) == 0 {
				continue
			}
			v := verdict(d, a, b)
			ra, rb := plain.values(d.Name, unscaled)
			rv := verdict(d, ra, rb)
			if rv != v {
				rv += " (differs)"
			}
			e2e.AddRow(d.Name, d.Unit, spread(a), spread(b), change(a, b), fmt.Sprintf("%.0f%%", 100*d.Bound), v, rv)
		}
		traced := pairBySeed(before, after, wl, 1)
		layers := layerTable(traced)
		if len(e2e.Rows) == 0 && len(layers.Rows) == 0 {
			continue
		}
		fmt.Fprintf(out, "\n%s: end to end (%d runs paired by seed%s)\n", wl, len(plain.pairs), plain.unpairedNote())
		if err := e2e.Render(out); err != nil {
			return err
		}
		fmt.Fprintf(out, "\n%s: per layer, largest change first (%d traced runs paired by seed%s)\n", wl, len(traced.pairs), traced.unpairedNote())
		if err := layers.Render(out); err != nil {
			return err
		}
		fmt.Fprintf(out, "\n%s: work counts: %s\n", wl, workDiff(append(plain.pairs, traced.pairs...)))
	}
	return nil
}

// verdict applies the benchmark's rule to one end-to-end metric over runs
// paired by seed, a before and b after:
//
//	better      the after set wins at least nine tenths of the pairs, and
//	            its median is better by more than the before set's own
//	            quartile spread; where that spread, as a share of the
//	            median, is wider than the bound, every after run must also
//	            beat every before run
//	worse       the after median is worse by more than the metric's bound
//	unresolved  neither, and the before set's quartile spread is wider than
//	            the bound
//	same        neither, within the bound
func verdict(d metricDef, a, b []float64) string {
	if len(a) == 0 || len(a) != len(b) {
		return "missing"
	}
	better := func(x, y float64) bool {
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	qa, qb := quartiles(a), quartiles(b)
	wins := 0
	for i := range a {
		if better(b[i], a[i]) {
			wins++
		}
	}
	iqr := qa[2] - qa[0]
	wide := iqr/qa[1] > d.Bound
	// The worst after run against the best before run.
	worstAfter, bestBefore := b[0], a[0]
	for i := range a {
		if better(worstAfter, b[i]) {
			worstAfter = b[i]
		}
		if better(a[i], bestBefore) {
			bestBefore = a[i]
		}
	}
	worse := (qb[1] - qa[1]) / qa[1]
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case 10*wins >= 9*len(a) && better(qb[1], qa[1]) && math.Abs(qb[1]-qa[1]) > iqr &&
		(!wide || better(worstAfter, bestBefore)):
		return "better"
	case worse > d.Bound:
		return "worse"
	case wide:
		return "unresolved"
	}
	return "same"
}

// layerTable tabulates the per-layer metrics the paired traced runs
// measured; a metric that is 0 on both sides belongs to a layer the
// workload does not call.
func layerTable(p pairing) *stats.Table {
	type row struct {
		cells []string
		moved float64
	}
	var rows []row
	for _, d := range perLayer {
		a, b := p.values(d.Name, scaled)
		ma, mb := quantile(a, 0.5), quantile(b, 0.5)
		if ma == 0 && mb == 0 {
			continue
		}
		moved := math.Inf(1)
		if ma != 0 {
			moved = math.Abs(mb-ma) / math.Abs(ma)
		}
		rows = append(rows, row{[]string{d.Name, d.Unit, number(ma, len(a)), number(mb, len(b)), change(a, b)}, moved})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].moved > rows[j].moved })
	t := &stats.Table{Headers: []string{"metric", "unit", "before median", "after median", "change"}}
	for _, r := range rows {
		t.AddRow(r.cells...)
	}
	return t
}

// pairing is the runs of one workload and trace mode in two sets, matched
// by seed.
type pairing struct {
	pairs    [][2]*record // before, after; in seed order
	unpaired []string     // runs with no partner, as "before seed 3"
}

// pairBySeed matches the runs of two sets by seed. A seed run on one side
// only, or more than once on a side, is left unpaired.
func pairBySeed(before, after []*record, wl string, trace int) pairing {
	bySeed := func(recs []*record) map[uint64][]*record {
		m := map[uint64][]*record{}
		for _, r := range recs {
			if r.Workload == wl && r.Trace == trace {
				m[r.Seed] = append(m[r.Seed], r)
			}
		}
		return m
	}
	a, b := bySeed(before), bySeed(after)
	seeds := map[uint64]bool{}
	for s := range a {
		seeds[s] = true
	}
	for s := range b {
		seeds[s] = true
	}
	order := make([]uint64, 0, len(seeds))
	for s := range seeds {
		order = append(order, s)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	var p pairing
	for _, s := range order {
		if len(a[s]) == 1 && len(b[s]) == 1 {
			p.pairs = append(p.pairs, [2]*record{a[s][0], b[s][0]})
			continue
		}
		for range a[s] {
			p.unpaired = append(p.unpaired, fmt.Sprintf("before seed %d", s))
		}
		for range b[s] {
			p.unpaired = append(p.unpaired, fmt.Sprintf("after seed %d", s))
		}
	}
	return p
}

func (p pairing) unpairedNote() string {
	if len(p.unpaired) == 0 {
		return ""
	}
	return "; left out, unpaired: " + strings.Join(p.unpaired, ", ")
}

// scaled reads a metric as the run reported it; unscaled reads an
// end-to-end metric before it was scaled by the speed probes.
func scaled(r *record) map[string]float64   { return r.Metrics }
func unscaled(r *record) map[string]float64 { return r.Raw }

// values is one metric over the pairs that measured it on both sides.
func (p pairing) values(metric string, from func(*record) map[string]float64) (a, b []float64) {
	for _, pr := range p.pairs {
		x, okA := from(pr[0])[metric]
		y, okB := from(pr[1])[metric]
		if okA && okB {
			a, b = append(a, x), append(b, y)
		}
	}
	return a, b
}

// workDiff compares the deterministic work counts of each pair of runs.
func workDiff(pairs [][2]*record) string {
	var diffs []string
	for _, pr := range pairs {
		a, b := pr[0].Work, pr[1].Work
		keys := map[string]bool{}
		for k := range a {
			keys[k] = true
		}
		for k := range b {
			keys[k] = true
		}
		names := make([]string, 0, len(keys))
		for k := range keys {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			va, okA := a[k]
			vb, okB := b[k]
			if va != vb || okA != okB {
				diffs = append(diffs, fmt.Sprintf("seed %d trace %d %s: %d before, %d after", pr[0].Seed, pr[0].Trace, k, va, vb))
			}
		}
	}
	if len(diffs) == 0 {
		return fmt.Sprintf("identical in all %d pairs", len(pairs))
	}
	return "DIFFER\n  " + strings.Join(diffs, "\n  ")
}

// loadRecords reads the record lines of a file of run outputs.
func loadRecords(path string) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var line struct {
			Record *record `json:"record"`
		}
		if json.Unmarshal(sc.Bytes(), &line) == nil && line.Record != nil {
			out = append(out, line.Record)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no record lines", path)
	}
	return out, nil
}

// quartiles are the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (its default, exclusive
// method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func spread(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", q[1], q[0], q[2])
}

func change(a, b []float64) string {
	ma, mb := quantile(a, 0.5), quantile(b, 0.5)
	if len(a) == 0 || len(b) == 0 || ma == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(mb-ma)/ma)
}

func number(v float64, n int) string {
	if n == 0 {
		return "-"
	}
	return strconv.FormatFloat(v, 'g', 5, 64)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
