package experiments

import (
	"bytes"
	"context"
	"io"

	"repro/internal/stats"
)

// Artifact is one computed artifact: a data structure that renders itself
// as its text table and marshals to JSON through its exported fields.
// Append is the one text render: it appends the artifact's text to dst,
// formatting numbers with stats.AppendFixed, and Render writes what Append
// builds in a single Write.
type Artifact interface {
	Append(dst []byte) []byte
	Render(w io.Writer) error
}

// PaperArtifact is one entry of the artifact table: a name and the
// computation behind it.
type PaperArtifact struct {
	Name string
	Run  func(ctx context.Context, r Runner) (Artifact, error)
}

// Artifacts is the paper's evaluation in paper order: what `rbexp -exp all`
// prints, and every name rbexp, /v1/experiment, /v1/batch?artifact= and
// batch journal resume look up.
var Artifacts = []PaperArtifact{
	{"fig1", func(ctx context.Context, r Runner) (Artifact, error) { return Figure1(ctx, r) }},
	{"table1", func(context.Context, Runner) (Artifact, error) { return Table1() }},
	{"table2", func(context.Context, Runner) (Artifact, error) {
		return textTable("Table 2. Machine configuration", RenderTable2)
	}},
	{"table3", func(context.Context, Runner) (Artifact, error) {
		return textTable("Table 3. Instruction class latencies", RenderTable3)
	}},
	{"fig9", func(ctx context.Context, r Runner) (Artifact, error) { return Figure9(ctx, r) }},
	{"fig10", func(ctx context.Context, r Runner) (Artifact, error) { return Figure10(ctx, r) }},
	{"fig11", func(ctx context.Context, r Runner) (Artifact, error) { return Figure11(ctx, r) }},
	{"fig12", func(ctx context.Context, r Runner) (Artifact, error) { return Figure12(ctx, r) }},
	{"fig13", func(ctx context.Context, r Runner) (Artifact, error) { return Figure13(ctx, r) }},
	{"fig14", func(ctx context.Context, r Runner) (Artifact, error) { return Figure14(ctx, r) }},
	{"sweeps", func(ctx context.Context, r Runner) (Artifact, error) { return Sweeps(ctx, r) }},
	{"summary", func(ctx context.Context, r Runner) (Artifact, error) { return ComputeSummary(ctx, r) }},
}

// ArtifactByName looks a name up in Artifacts.
func ArtifactByName(name string) (PaperArtifact, bool) {
	for _, a := range Artifacts {
		if a.Name == name {
			return a, true
		}
	}
	return PaperArtifact{}, false
}

// ArtifactNames lists the names of Artifacts, in order.
func ArtifactNames() []string {
	names := make([]string, len(Artifacts))
	for i, a := range Artifacts {
		names[i] = a.Name
	}
	return names
}

// RenderText is the one text rendering of an artifact: its table plus the
// blank line that separates artifacts, so rbexp's output, every format=text
// body and every journaled batch output are the same bytes.
func RenderText(a Artifact) ([]byte, error) {
	return append(a.Append(nil), '\n'), nil
}

// write is every artifact's Render: one Write of its Append.
func write(w io.Writer, text []byte) error {
	_, err := w.Write(text)
	return err
}

// fixed is a table cell holding v with prec decimals, as %.<prec>f.
func fixed(v float64, prec int) string {
	var b [32]byte
	return string(stats.AppendFixed(b[:0], v, prec))
}

// pct is a table cell holding the fraction v as a percentage with one
// decimal, as %.1f%% of 100*v.
func pct(v float64) string {
	var b [32]byte
	return string(append(stats.AppendFixed(b[:0], 100*v, 1), '%'))
}

// gainPct renders a ratio as a signed percentage change, as %+.1f%% of
// 100*(ratio-1).
func gainPct(ratio float64) string {
	var b [32]byte
	return string(append(stats.AppendFixedSigned(b[:0], 100*(ratio-1), 1), '%'))
}

// TextTable is a configuration table (Tables 2 and 3) held as its rendered
// text, served in JSON as {"title", "text"}.
type TextTable struct {
	Title string `json:"title"`
	Text  string `json:"text"`
}

// Render writes the table's text.
func (t *TextTable) Render(w io.Writer) error {
	_, err := io.WriteString(w, t.Text)
	return err
}

// Append appends the table's text.
func (t *TextTable) Append(dst []byte) []byte { return append(dst, t.Text...) }

func textTable(title string, render func(io.Writer) error) (*TextTable, error) {
	var b bytes.Buffer
	if err := render(&b); err != nil {
		return nil, err
	}
	return &TextTable{Title: title, Text: b.String()}, nil
}
