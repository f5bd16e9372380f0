// Package report renders the experiment results as fixed-width text
// tables shaped like the paper's figures, and the answers the CLI, the
// daemon and the library facade share: the analysis JSON document, the
// store at main's return, and the diagnostics in text and JSON.
package report

import (
	"fmt"
	"io"
	"strings"

	"aliaslab/internal/stats"
)

// Table writes a fixed-width table. Numeric-looking cells are right
// aligned; everything else is left aligned.
func Table(w io.Writer, title string, headers []string, rows [][]string) {
	if title != "" {
		fmt.Fprintln(w, title)
	}
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		var sb strings.Builder
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			if i == 0 {
				sb.WriteString(fmt.Sprintf("%-*s", widths[i], cell))
			} else {
				sb.WriteString(fmt.Sprintf("%*s", widths[i], cell))
			}
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
	writeRow(headers)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total-2))
	for _, row := range rows {
		writeRow(row)
	}
}

// Itoa is a tiny helper for building rows.
func Itoa(n int) string { return fmt.Sprintf("%d", n) }

// F2 formats a float with two decimals.
func F2(f float64) string { return fmt.Sprintf("%.2f", f) }

// Pct formats a percentage with one decimal.
func Pct(f float64) string { return fmt.Sprintf("%.1f", f) }

// Figure2 renders benchmark sizes.
func Figure2(w io.Writer, rows []stats.SizeStats) {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Name, Itoa(r.Lines), Itoa(r.Nodes), Itoa(r.AliasOutputs)})
	}
	Table(w, "Figure 2: Benchmark programs and their sizes in source and VDG form",
		[]string{"name", "lines", "VDG nodes", "alias-related outputs"}, out)
}

// CensusRow renders one Figure 3/6-style census row.
func CensusRow(name string, c stats.PairCensus) []string {
	return []string{name, Itoa(c.Pointer), Itoa(c.Function), Itoa(c.Aggregate), Itoa(c.Store), Itoa(c.Total)}
}

// Figure3 renders the context-insensitive pair census.
func Figure3(w io.Writer, names []string, rows []stats.PairCensus) {
	var out [][]string
	var total stats.PairCensus
	for i, c := range rows {
		out = append(out, CensusRow(names[i], c))
		total.Add(c)
	}
	out = append(out, CensusRow("TOTAL", total))
	Table(w, "Figure 3: Total points-to relationships, as computed by context-insensitive analysis",
		[]string{"name", "pointer", "function", "aggregate", "store", "total"}, out)
}

// Figure4 renders the indirect read/write statistics.
func Figure4(w io.Writer, names []string, rows []stats.IndirectOps) {
	var out [][]string
	var totR, totW stats.OpHistogram
	addHist := func(name, kind string, h stats.OpHistogram) {
		out = append(out, []string{
			name, kind, Itoa(h.Total),
			Itoa(h.N[0]), Itoa(h.N[1]), Itoa(h.N[2]), Itoa(h.N[3]),
			Itoa(h.Max), F2(h.Avg()),
		})
	}
	accum := func(dst *stats.OpHistogram, h stats.OpHistogram) {
		dst.Total += h.Total
		for i := range dst.N {
			dst.N[i] += h.N[i]
		}
		dst.Zero += h.Zero
		dst.SumRefs += h.SumRefs
		if h.Max > dst.Max {
			dst.Max = h.Max
		}
	}
	for i, r := range rows {
		addHist(names[i], "read", r.Reads)
		addHist(names[i], "write", r.Writes)
		accum(&totR, r.Reads)
		accum(&totW, r.Writes)
	}
	addHist("TOTAL", "read", totR)
	addHist("TOTAL", "write", totW)
	Table(w, "Figure 4: Points-to statistics for indirect memory reads and writes",
		[]string{"name", "type", "total", "n=1", "n=2", "n=3", "n>=4", "max", "avg"}, out)
}

// Figure6 renders the context-sensitive census with spurious percentages.
func Figure6(w io.Writer, names []string, cs []stats.PairCensus, ciTotals []int) {
	var out [][]string
	var total stats.PairCensus
	ciSum := 0
	for i, c := range cs {
		row := CensusRow(names[i], c)
		row = append(row, Itoa(ciTotals[i]), Pct(spuriousPct(ciTotals[i], c.Total)))
		out = append(out, row)
		total.Add(c)
		ciSum += ciTotals[i]
	}
	row := CensusRow("TOTAL", total)
	row = append(row, Itoa(ciSum), Pct(spuriousPct(ciSum, total.Total)))
	out = append(out, row)
	Table(w, "Figure 6: Points-to relationships, as computed by context-sensitive analysis",
		[]string{"name", "pointer", "function", "aggregate", "store", "total", "total (insens.)", "% spurious"}, out)
}

func spuriousPct(ci, cs int) float64 {
	if ci == 0 {
		return 0
	}
	return 100 * float64(ci-cs) / float64(ci)
}

// Figure7 renders the two path × referent breakdowns.
func Figure7(w io.Writer, all, spurious *stats.TypeMatrix) {
	render := func(title string, m *stats.TypeMatrix) {
		headers := []string{"path \\ referent"}
		for _, rc := range stats.RefClasses {
			headers = append(headers, rc.String())
		}
		var out [][]string
		for _, pc := range stats.PathClasses {
			row := []string{pc.String()}
			for _, rc := range stats.RefClasses {
				row = append(row, Pct(m.Percent(pc, rc))+"%")
			}
			out = append(out, row)
		}
		Table(w, title, headers, out)
		fmt.Fprintln(w)
	}
	render("Figure 7a: All points-to pairs (context-insensitive), by path and referent type", all)
	render("Figure 7b: Spurious points-to pairs only, by path and referent type", spurious)
}
