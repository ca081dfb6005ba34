package metrics

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// sanitizeName maps an arbitrary string to a valid Prometheus metric
// name: [a-zA-Z_:][a-zA-Z0-9_:]*. Invalid runes become underscores, and
// a leading digit is prefixed.
func sanitizeName(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else if r >= '0' && r <= '9' { // leading digit
			b.WriteByte('_')
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// sanitizeLabelName is sanitizeName without the colon (colons are
// reserved for recording rules in label position).
func sanitizeLabelName(s string) string {
	return strings.ReplaceAll(sanitizeName(s), ":", "_")
}

// escapeLabelValue applies the exposition-format escapes: backslash,
// double quote, and newline.
func escapeLabelValue(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes backslash and newline for HELP lines.
func escapeHelp(s string) string {
	return strings.ReplaceAll(strings.ReplaceAll(s, `\`, `\\`), "\n", `\n`)
}

// labelString renders {k="v",...}. Empty label sets render as "".
func labelString(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabelValue(values[i]))
	}
	b.WriteByte('}')
	return b.String()
}

// WriteText renders the registry in Prometheus text exposition format
// (version 0.0.4): families sorted by name, series sorted by label
// values. The output of a quiescent registry is deterministic
// byte-for-byte, which is what the exposition golden test pins.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	fams := r.sortedFamilies()
	// Collect rows under the lock (cells are atomics; GaugeFuncs must
	// not call back into the registry), then write outside it.
	type row struct{ text string }
	var rows []row
	for _, f := range fams {
		var b strings.Builder
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, c := range f.sortedChildren() {
			fmt.Fprintf(&b, "%s %d\n", sampleKey(f.name, f.labelNames, c.labelValues), cellValue(c.cell))
		}
		rows = append(rows, row{b.String()})
	}
	r.mu.Unlock()
	for _, row := range rows {
		if _, err := bw.WriteString(row.text); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Handler returns an http.Handler serving the registry as a Prometheus
// scrape target — the GET /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
