package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Replay is the reconstruction of one run from its event stream alone.
// For a correctly instrumented run every field equals the counter the
// live layers reported — that equality is what turns a traced benchmark
// into a self-checking experiment.
type Replay struct {
	Events int
	// Counts is the per layer/kind event census, keyed "layer/kind".
	Counts map[string]int64

	// Disk reconstruction.
	Reads, Writes        int64
	SeekTotal, SeekReads int64
	MaxSeek              int64
	// Reversals counts head direction changes across consecutive reads
	// — the quantity elevator scheduling exists to minimize.
	Reversals int
	// SeekHist is the seek-distance distribution over reads and writes.
	SeekHist Hist

	// Buffer reconstruction.
	Hits, Misses, Evictions, Flushes, Unfixes int64
	ChecksumFails                             int64

	// Fault reconstruction.
	FaultsTransient, FaultsPermanent int64

	// Network reconstruction (page-service client events).
	NetSends, NetRecvs, NetErrors int64
	// NetPages counts the pages read or written by answered requests: a
	// run of pages is one send and one recv but as many pages.
	NetPages              int64
	NetTimeouts           int64
	Failovers, Reconnects int64
	// Fleet control-plane activity: replica promotions and resharding
	// cutovers (pages flipped to their new owner).
	Promotions, PagesMigrated int64

	// Assembly reconstruction.
	Admitted, Assembled, Aborted, Quarantined int
	Retries, Stalls, Fetched, Links, Chosen   int

	// Window occupancy over time: one point per change, plus the peak.
	Occupancy  []OccPoint
	PeakWindow int
}

// OccPoint is the window occupancy after the event at Seq.
type OccPoint struct {
	Seq  uint64
	Live int
}

// AvgSeekPerRead is the paper's metric, reconstructed: read-attributed
// seek distance over reads.
func (r *Replay) AvgSeekPerRead() float64 {
	if r.Reads == 0 {
		return 0
	}
	return float64(r.SeekReads) / float64(r.Reads)
}

// Stats summarizes the reconstruction in RunStats form for comparison
// against a harness-reported snapshot.
func (r *Replay) Stats() RunStats {
	return RunStats{
		Reads:     r.Reads,
		SeekReads: r.SeekReads,
		SeekTotal: r.SeekTotal,
		Assembled: r.Assembled,
		Aborted:   r.Aborted,
		Skipped:   r.Quarantined,
		Retries:   r.Retries,
		Stalls:    r.Stalls,
	}
}

// ReplayEvents reconstructs a run from its events.
func ReplayEvents(events []Event) *Replay {
	r := &Replay{Counts: map[string]int64{}}
	live := 0
	lastDir := 0 // -1 down, +1 up, 0 unknown
	occ := func(seq uint64, delta int) {
		live += delta
		if live > r.PeakWindow {
			r.PeakWindow = live
		}
		r.Occupancy = append(r.Occupancy, OccPoint{Seq: seq, Live: live})
	}
	for _, e := range events {
		r.Events++
		r.Counts[e.Layer+"/"+e.Kind]++
		switch e.Layer {
		case LayerDisk:
			switch e.Kind {
			case KindRead:
				r.Reads++
				r.SeekTotal += e.Dist
				r.SeekReads += e.Dist
				if e.Dist > r.MaxSeek {
					r.MaxSeek = e.Dist
				}
				r.SeekHist.Add(e.Dist)
				if e.Dist != 0 {
					dir := 1
					if e.Page < e.Head {
						dir = -1
					}
					if lastDir != 0 && dir != lastDir {
						r.Reversals++
					}
					lastDir = dir
				}
			case KindWrite:
				r.Writes++
				r.SeekTotal += e.Dist
				if e.Dist > r.MaxSeek {
					r.MaxSeek = e.Dist
				}
				r.SeekHist.Add(e.Dist)
			case KindFault:
				if e.Note == "permanent" {
					r.FaultsPermanent++
				} else {
					r.FaultsTransient++
				}
			}
		case LayerBuffer:
			switch e.Kind {
			case KindHit:
				r.Hits++
			case KindMiss:
				r.Misses++
			case KindEvict:
				r.Evictions++
			case KindFlush:
				r.Flushes++
			case KindUnfix:
				r.Unfixes++
			case KindChecksumFail:
				r.ChecksumFails++
			}
		case LayerNet:
			switch e.Kind {
			case KindSend:
				r.NetSends++
			case KindRecv:
				r.NetRecvs++
				r.NetPages += int64(e.OID)
				if e.N != 0 {
					r.NetErrors++
				}
			case KindTimeout:
				r.NetTimeouts++
			case KindFailover:
				r.Failovers++
			case KindReconnect:
				r.Reconnects++
			case KindPromote:
				r.Promotions++
			case KindMigrate:
				r.PagesMigrated += e.N
			}
		case LayerAssembly:
			switch e.Kind {
			case KindAdmit:
				r.Admitted++
				occ(e.Seq, +1)
			case KindEmit:
				r.Assembled++
				occ(e.Seq, -1)
			case KindAbort:
				r.Aborted++
				occ(e.Seq, -1)
			case KindQuarantine:
				r.Quarantined++
				occ(e.Seq, -1)
			case KindRetry:
				r.Retries++
			case KindStall:
				r.Stalls++
			case KindFetch:
				r.Fetched++
			case KindLink:
				r.Links++
			case KindChoose:
				r.Chosen++
			}
		}
	}
	return r
}

// FilterQuery slices an event stream to one query's events: those
// carrying the given QID. Bench run markers (which are never
// query-attributed) are dropped, so the result replays as a single
// unnamed run.
func FilterQuery(events []Event, qid uint64) []Event {
	var out []Event
	for _, e := range events {
		if e.QID == qid && e.Layer != LayerBench {
			out = append(out, e)
		}
	}
	return out
}

// Run is one harness-delimited segment of a trace: the events between a
// bench begin marker and its matching end (markers excluded).
type Run struct {
	// Name is the begin marker's note; empty for events outside any run.
	Name string
	// Window is the configured window size from the begin marker.
	Window int
	// Events are the run's events, markers excluded.
	Events []Event
	// Reported is the harness-reported counter snapshot from the end
	// marker; nil when the run never ended.
	Reported *RunStats
}

// SplitRuns partitions a trace into harness runs. Events before the
// first begin marker (or in a markerless trace) form an unnamed run.
func SplitRuns(events []Event) []Run {
	var runs []Run
	cur := Run{}
	flush := func() {
		if cur.Name != "" || len(cur.Events) > 0 {
			runs = append(runs, cur)
		}
		cur = Run{}
	}
	for _, e := range events {
		if e.Layer == LayerBench {
			switch e.Kind {
			case KindBegin:
				flush()
				cur = Run{Name: e.Note, Window: int(e.N)}
			case KindEnd:
				if e.Stats != nil {
					s := *e.Stats
					cur.Reported = &s
				}
				flush()
			}
			continue
		}
		cur.Events = append(cur.Events, e)
	}
	flush()
	return runs
}

// Verify replays the run and compares the reconstruction against the
// harness-reported counters, returning a descriptive error on the first
// mismatch. Runs without an end marker verify vacuously.
func (run Run) Verify() (*Replay, error) {
	r := ReplayEvents(run.Events)
	if run.Reported == nil {
		return r, nil
	}
	got, want := r.Stats(), *run.Reported
	if got != want {
		return r, fmt.Errorf("trace: run %q: replay %+v != reported %+v", run.Name, got, want)
	}
	return r, nil
}

// Summary renders the per-layer event census as an indented,
// flamegraph-style table: layers sorted by event volume, kinds nested
// under them with proportional bars.
func (r *Replay) Summary() string {
	type kindCount struct {
		kind string
		n    int64
	}
	byLayer := map[string][]kindCount{}
	layerTotal := map[string]int64{}
	for key, n := range r.Counts {
		layer, kind, _ := strings.Cut(key, "/")
		byLayer[layer] = append(byLayer[layer], kindCount{kind, n})
		layerTotal[layer] += n
	}
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool {
		if layerTotal[layers[i]] != layerTotal[layers[j]] {
			return layerTotal[layers[i]] > layerTotal[layers[j]]
		}
		return layers[i] < layers[j]
	})
	total := int64(r.Events)
	if total == 0 {
		return "(no events)"
	}
	var b strings.Builder
	for _, l := range layers {
		fmt.Fprintf(&b, "%-10s %8d events (%5.1f%%)\n", l, layerTotal[l], 100*float64(layerTotal[l])/float64(total))
		kinds := byLayer[l]
		sort.Slice(kinds, func(i, j int) bool {
			if kinds[i].n != kinds[j].n {
				return kinds[i].n > kinds[j].n
			}
			return kinds[i].kind < kinds[j].kind
		})
		for _, kc := range kinds {
			bar := int(30 * kc.n / layerTotal[l])
			if bar == 0 {
				bar = 1
			}
			fmt.Fprintf(&b, "  %-12s %8d (%5.1f%%) %s\n", kc.kind, kc.n,
				100*float64(kc.n)/float64(layerTotal[l]), strings.Repeat("#", bar))
		}
	}
	return b.String()
}

// Sparkline renders vals as a one-line text sparkline scaled against
// peak, downsampled to at most width points; each output rune is the
// peak within its bucket, so short spikes stay visible. It is shared by
// the replay's occupancy table and the live /statusz page.
func Sparkline(vals []int, peak, width int) string {
	if len(vals) == 0 {
		return ""
	}
	if width < 1 {
		width = 60
	}
	step := 1
	if len(vals) > width {
		step = (len(vals) + width - 1) / width
	}
	levels := []rune(" .:-=+*#%@")
	var line strings.Builder
	for i := 0; i < len(vals); i += step {
		lvl := 0
		for j := i; j < i+step && j < len(vals); j++ {
			if vals[j] > lvl {
				lvl = vals[j]
			}
		}
		idx := 0
		if peak > 0 {
			idx = lvl * (len(levels) - 1) / peak
		}
		line.WriteRune(levels[idx])
	}
	return line.String()
}

// OccupancyTable downsamples the occupancy series to at most width
// points and renders it as a text sparkline over event sequence.
func (r *Replay) OccupancyTable(width int) string {
	if len(r.Occupancy) == 0 {
		return "(no window activity)"
	}
	pts := r.Occupancy
	vals := make([]int, len(pts))
	for i, p := range pts {
		vals[i] = p.Live
	}
	var b strings.Builder
	fmt.Fprintf(&b, "window occupancy over %d changes, peak %d\n", len(pts), r.PeakWindow)
	fmt.Fprintf(&b, "  [%s]\n", Sparkline(vals, r.PeakWindow, width))
	fmt.Fprintf(&b, "  seq %d..%d\n", pts[0].Seq, pts[len(pts)-1].Seq)
	return b.String()
}
