package qtrace

import (
	"fmt"
	"net/http"
	"strings"
	"time"
)

// Handler serves the /tracez page: a plain-text dump of the
// collector's recent completed traces (newest first) with per-span
// timelines, per-span counters, the slow-query log, and completed-
// query latency quantiles from the power-of-two histogram.
func Handler(c *Collector) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if c == nil {
			fmt.Fprintln(w, "qtrace: disabled")
			return
		}
		completed := c.Completed()
		active := c.Active()
		slow := c.Slow()
		lat := c.Latency()

		fmt.Fprintf(w, "qtrace: %d completed, %d active, %d slow\n",
			len(completed), len(active), len(slow))
		if lat.Count > 0 {
			fmt.Fprintf(w, "latency: n=%d p50<=%s p90<=%s p99<=%s max=%s\n",
				lat.Count,
				time.Duration(lat.Quantile(0.50)),
				time.Duration(lat.Quantile(0.90)),
				time.Duration(lat.Quantile(0.99)),
				time.Duration(lat.Max))
		}

		if len(slow) > 0 {
			fmt.Fprintf(w, "\nslow queries (oldest first):\n")
			for _, t := range slow {
				status, _ := t.Status()
				fmt.Fprintf(w, "  qid=%-6d %-24s %-8s %10s  critical-path=%s\n",
					t.QID, t.Name, status, t.Duration().Round(time.Microsecond), Dominant(t))
			}
		}

		if len(active) > 0 {
			fmt.Fprintf(w, "\nactive queries:\n")
			for _, t := range active {
				kind := ""
				if t.Remote {
					kind = " (remote)"
				}
				fmt.Fprintf(w, "  qid=%-6d %-24s running %10s%s\n",
					t.QID, t.Name, t.Duration().Round(time.Microsecond), kind)
			}
		}

		fmt.Fprintf(w, "\nrecent traces (newest first):\n")
		for i := len(completed) - 1; i >= 0; i-- {
			writeTrace(w, completed[i])
		}
	})
}

// writeTrace renders one trace block: header, critical path, total
// counters, and the indented span timeline.
func writeTrace(w http.ResponseWriter, t *Trace) {
	status, errMsg := t.Status()
	kind := ""
	if t.Remote {
		kind = " remote"
	}
	spans := t.Spans()
	fmt.Fprintf(w, "\nqid=%d %q%s status=%s dur=%s spans=%d",
		t.QID, t.Name, kind, status, t.Duration().Round(time.Microsecond), len(spans))
	if n := t.Truncated(); n > 0 {
		fmt.Fprintf(w, " truncated=%d", n)
	}
	fmt.Fprintln(w)
	if errMsg != "" {
		fmt.Fprintf(w, "  error: %s\n", errMsg)
	}
	if cp := CriticalPath(t); len(cp) > 0 {
		parts := make([]string, 0, len(cp))
		for _, lt := range cp {
			parts = append(parts, fmt.Sprintf("%s %.0f%%", lt.Layer, 100*lt.Frac))
		}
		fmt.Fprintf(w, "  critical-path: %s\n", strings.Join(parts, " > "))
	}
	fmt.Fprintf(w, "  totals: %s\n", FormatCounters(t.Total()))

	depth := map[int32]int{}
	dur := int64(t.Duration())
	for _, s := range spans {
		d := 0
		if s.parentID != 0 {
			d = depth[s.parentID] + 1
		}
		depth[s.id] = d
		end := s.endNS
		if end == 0 {
			end = dur
		}
		label := fmt.Sprintf("%s%s/%s", strings.Repeat("  ", d), s.layer, s.name)
		fmt.Fprintf(w, "  %-28s %s %10s  %s\n",
			label, timeline(s.startNS, end, dur, 32),
			time.Duration(end-s.startNS).Round(time.Microsecond),
			FormatCounters(s.Counters()))
	}
}

// timeline renders one span as a fixed-width bar positioned within the
// trace duration.
func timeline(start, end, total int64, width int) string {
	if total <= 0 {
		total = 1
	}
	lo := int(start * int64(width) / total)
	hi := int(end * int64(width) / total)
	if lo >= width {
		lo = width - 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	if hi > width {
		hi = width
	}
	return "|" + strings.Repeat(" ", lo) + strings.Repeat("#", hi-lo) +
		strings.Repeat(" ", width-hi) + "|"
}

// FormatCounters renders the non-zero fields of c compactly.
func FormatCounters(c Counters) string {
	var b strings.Builder
	add := func(name string, v int64) {
		if v == 0 {
			return
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", name, v)
	}
	add("reads", c.Reads)
	add("seek", c.SeekPages)
	add("faults", c.Faults)
	add("hits", c.Hits)
	add("misses", c.Misses)
	add("ioretries", c.IORetries)
	add("fetches", c.Fetches)
	add("links", c.Links)
	add("refretries", c.RefRetries)
	add("stalls", c.Stalls)
	add("sends", c.NetSends)
	add("recvs", c.NetRecvs)
	add("timeouts", c.NetTimeouts)
	if b.Len() == 0 {
		return "-"
	}
	return b.String()
}
