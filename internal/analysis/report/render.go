package report

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// Mode selects the output renderer.
type Mode int

// Output modes of the -o flag.
const (
	// ModeCLI is plain text: pipe-safe, grep-friendly, golden-testable.
	ModeCLI Mode = iota
	// ModeTUI is ANSI-colored text for interactive terminals.
	ModeTUI
	// ModeHTML is a standalone self-styled HTML page.
	ModeHTML
)

// ParseMode parses a -o flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "cli":
		return ModeCLI, nil
	case "tui":
		return ModeTUI, nil
	case "html":
		return ModeHTML, nil
	}
	return ModeCLI, fmt.Errorf("report: unknown output mode %q (want cli, tui, or html)", s)
}

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeTUI:
		return "tui"
	case ModeHTML:
		return "html"
	}
	return "cli"
}

// Render writes the model in the given mode.
func Render(w io.Writer, mode Mode, m *Model) error {
	switch mode {
	case ModeHTML:
		return WriteHTML(w, m)
	case ModeTUI:
		return WriteTUI(w, m)
	default:
		return WriteCLI(w, m)
	}
}

// WriteFile renders the model into path (creating it).
func WriteFile(path string, mode Mode, m *Model) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Render(f, mode, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// barWidth is the text-mode bar budget in cells.
const barWidth = 28

// WriteCLI renders plain text.
func WriteCLI(w io.Writer, m *Model) error {
	return writeText(w, m, textStyle{})
}

// WriteTUI renders ANSI-colored text: the same layout as cli with
// per-segment-kind colors and eighth-block bar resolution.
func WriteTUI(w io.Writer, m *Model) error {
	return writeText(w, m, textStyle{ansi: true})
}

// textStyle parameterizes the shared text renderer.
type textStyle struct{ ansi bool }

// ANSI palette per bar class; text renders uncolored for unknown keys.
var ansiByClass = map[string]string{
	"net_out":      "36", // cyan
	"net_back":     "36",
	"queue":        "33", // yellow — the saturation signal
	"exec":         "32", // green
	"backoff":      "35", // magenta
	"batch_window": "34", // blue
	"unmatched":    "90", // bright black
	"delta+":       "31", // red — regression
	"delta-":       "32", // green — improvement
}

func (st textStyle) color(class, s string) string {
	if !st.ansi {
		return s
	}
	code, ok := ansiByClass[class]
	if !ok {
		return s
	}
	return "\x1b[" + code + "m" + s + "\x1b[0m"
}

func (st textStyle) bold(s string) string {
	if !st.ansi {
		return s
	}
	return "\x1b[1m" + s + "\x1b[0m"
}

// bar renders a width·frac cell bar. The tui variant sharpens the
// remainder with eighth blocks; the cli variant sticks to '#' so goldens
// stay ASCII.
func (st textStyle) bar(frac float64) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	if !st.ansi {
		n := int(frac*barWidth + 0.5)
		return strings.Repeat("#", n) + strings.Repeat(".", barWidth-n)
	}
	cells := frac * barWidth
	full := int(cells)
	rem := cells - float64(full)
	blocks := strings.Repeat("█", full)
	if eighth := int(rem * 8); eighth > 0 && full < barWidth {
		blocks += string([]rune("▏▎▍▌▋▊▉█")[eighth-1])
	}
	pad := barWidth - len([]rune(blocks))
	if pad < 0 {
		pad = 0
	}
	return blocks + strings.Repeat(" ", pad)
}

func writeText(w io.Writer, m *Model, st textStyle) error {
	bw := &errWriter{w: w}
	bw.printf("%s\n", st.bold(m.Title))
	bw.printf("%s\n", strings.Repeat("=", len([]rune(m.Title))))
	if m.Generated != "" {
		bw.printf("generated: %s\n", m.Generated)
	}
	for _, n := range m.Notes {
		bw.printf("note: %s\n", n)
	}
	for i := range m.Sections {
		sec := &m.Sections[i]
		bw.printf("\n%s\n", st.bold(sec.Title))
		for _, line := range sec.Body {
			bw.printf("  %s\n", line)
		}
		if sec.Table != nil {
			writeTable(bw, sec.Table)
		}
		if len(sec.Bars) > 0 {
			writeBars(bw, sec.Bars, st)
		}
	}
	return bw.err
}

func writeBars(bw *errWriter, bars []Bar, st textStyle) {
	labelW := 0
	for i := range bars {
		if n := len([]rune(bars[i].Label)) + 2*bars[i].Level; n > labelW {
			labelW = n
		}
	}
	for i := range bars {
		b := &bars[i]
		indent := strings.Repeat("  ", b.Level)
		label := indent + b.Label
		pad := strings.Repeat(" ", labelW-len([]rune(label)))
		bw.printf("  %s%s  |%s| %5.1f%%  %s\n",
			st.color(b.Class, label), pad,
			st.color(b.Class, st.bar(b.Frac)), 100*b.Frac, b.Detail)
	}
}

func writeTable(bw *errWriter, t *Table) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len([]rune(h))
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	line := func(cells []string) {
		var sb strings.Builder
		sb.WriteString("  ")
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				sb.WriteString(strings.Repeat(" ", widths[i]-len([]rune(c))))
			}
		}
		bw.printf("%s\n", strings.TrimRight(sb.String(), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// errWriter folds the first write error, so renderers stay linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
