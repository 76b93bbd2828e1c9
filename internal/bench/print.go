package bench

import (
	"fmt"
	"strings"
)

// Render formats a Result as an aligned text table.
func (r Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n%s\n\n", r.Name, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	rule := make([]string, len(widths))
	for i, w := range widths {
		rule[i] = strings.Repeat("-", w)
	}
	writeRow(rule)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "\nnote: %s\n", n)
	}
	return b.String()
}

// Markdown formats a Result as a GitHub-flavored markdown table (used to
// regenerate EXPERIMENTS.md).
func (r Result) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.Name, r.Title)
	b.WriteString("| " + strings.Join(r.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(r.Header)) + "\n")
	for _, row := range r.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	b.WriteByte('\n')
	return b.String()
}

// experiments is every runnable experiment in presentation order. Query
// experiments share a cached environment; the update experiment (fig17)
// builds private ones.
var experiments = []struct {
	name string
	run  func(Config) (Result, error)
}{
	{"defaults", shared(ExpDefaults)},
	{"fig8", shared(ExpFig8)},
	{"fig9", shared(ExpFig9)},
	{"fig10", shared(ExpFig10)},
	{"fig11", shared(ExpFig11)},
	{"fig12", shared(ExpFig12)},
	{"fig13", shared(ExpFig13)},
	{"fig14", shared(ExpFig14)},
	{"fig15", shared(ExpFig15)},
	{"fig16", shared(ExpFig16)},
	{"fig17", ExpFig17},
	{"sizes", shared(ExpSizes)},
	{"ablate-listtypes", shared(ExpAblateListTypes)},
	{"ablate-domains", shared(ExpAblateDomains)},
	{"ablate-plan", shared(ExpAblatePlan)},
	{"ablate-signature", shared(ExpAblateSignature)},
}

// shared runs exp on the cached environment for the run's Config.
func shared(exp func(*Env) (Result, error)) func(Config) (Result, error) {
	return func(cfg Config) (Result, error) {
		e, err := SharedEnv(cfg)
		if err != nil {
			return Result{}, err
		}
		return exp(e)
	}
}

// Experiments lists the experiment names in presentation order.
func Experiments() []string {
	names := make([]string, len(experiments))
	for i, x := range experiments {
		names[i] = x.name
	}
	return names
}

// Run executes one named experiment under cfg.
func Run(name string, cfg Config) (Result, error) {
	for _, x := range experiments {
		if x.name == name {
			return x.run(cfg)
		}
	}
	return Result{}, fmt.Errorf("bench: unknown experiment %q (known: %s)",
		name, strings.Join(Experiments(), ", "))
}
