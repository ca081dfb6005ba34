// Command asminspect opens a database generated by cmd/dbgen, prints
// its physical statistics, and optionally runs an assembly pass over
// it, reporting the paper's seek metric.
//
// Usage:
//
//	asminspect -db db.pages -manifest db.manifest
//	asminspect -db db.pages -manifest db.manifest -verify
//	asminspect -db db.pages -manifest db.manifest -assemble \
//	           -window 50 -scheduler elevator -buffer 512
//
// -verify checks every page's checksum and, where it holds, the slotted
// page's header and slot directory (page.VerifyDevice). With -shards,
// the scan runs fleet-wide instead of over a
// local file: every page is read through the rendezvous router from
// the shard that owns it (see cmd/asmpaged), and failures are reported
// with the owning member:
//
//	asminspect -shards host:7070,host:7072,host:7074 -verify
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"revelation/internal/assembly"
	"revelation/internal/disk"
	"revelation/internal/fleet"
	"revelation/internal/gen"
	"revelation/internal/page"
	"revelation/internal/volcano"
)

func main() {
	dbPath := flag.String("db", "db.pages", "device file")
	manifest := flag.String("manifest", "db.manifest", "manifest file")
	doVerify := flag.Bool("verify", false, "verify every page of the device (checksum, then slot directory) and exit (non-zero on corruption)")
	shards := flag.String("shards", "", "comma-separated page-service endpoints, one per shard, each optionally primary/replica; -verify scans the whole fleet through the rendezvous router instead of a local file")
	doAssemble := flag.Bool("assemble", false, "run an assembly pass and report seek statistics")
	window := flag.Int("window", 50, "assembly window size")
	scheduler := flag.String("scheduler", "elevator", "depth | breadth | elevator")
	bufferPages := flag.Int("buffer", 0, "buffer pool pages (0 = hold whole database)")
	flag.Parse()

	if *shards != "" {
		if !*doVerify {
			fmt.Fprintln(os.Stderr, "asminspect: -shards only supports -verify (fleet-wide page scan)")
			os.Exit(2)
		}
		verifyShards(*shards)
		return
	}
	if *doVerify {
		verify(*dbPath, *manifest)
		return
	}

	db, err := gen.OpenDatabase(*dbPath, *manifest, *bufferPages)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asminspect: %v\n", err)
		os.Exit(1)
	}
	defer db.Device.Close()

	records, err := db.Store.File.Count()
	if err != nil {
		fmt.Fprintf(os.Stderr, "asminspect: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("database:   %s (+ %s)\n", *dbPath, *manifest)
	fmt.Printf("shape:      %d complex objects × %d components (levels=%d fanout=%d)\n",
		db.Config.NumComplexObjects, db.NodesPerObject, db.Config.Levels, db.Config.Fanout)
	fmt.Printf("clustering: %v   sharing: %.3f   seed: %d\n",
		db.Config.Clustering, db.Config.Sharing, db.Config.Seed)
	fmt.Printf("storage:    %d records on %d pages of %d bytes (%.1f records/page)\n",
		records, db.Store.File.NumPages(), db.Config.PageSize,
		float64(records)/float64(db.Store.File.NumPages()))
	fmt.Printf("template:\n%s", indent(db.Template.String(), "  "))

	if !*doAssemble {
		return
	}
	var kind assembly.SchedulerKind
	switch strings.ToLower(*scheduler) {
	case "depth", "depth-first":
		kind = assembly.DepthFirst
	case "breadth", "breadth-first":
		kind = assembly.BreadthFirst
	case "elevator", "scan":
		kind = assembly.Elevator
	default:
		fmt.Fprintf(os.Stderr, "asminspect: unknown scheduler %q\n", *scheduler)
		os.Exit(2)
	}
	if err := db.Pool.EvictAll(); err != nil {
		fmt.Fprintf(os.Stderr, "asminspect: %v\n", err)
		os.Exit(1)
	}
	db.Pool.ResetStats()
	db.Device.ResetStats()
	db.Device.ResetHead()

	op := assembly.New(volcano.FromOIDs(db.Roots), db.Store, db.Template, assembly.Options{
		Window:          *window,
		Scheduler:       kind,
		UseSharingStats: db.Config.Sharing > 0,
	})
	n, err := volcano.Count(op)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asminspect: assembly: %v\n", err)
		os.Exit(1)
	}
	st := db.Device.Stats()
	ops := op.Stats()
	fmt.Printf("\nassembly pass: scheduler=%v window=%d buffer=%d pages\n", kind, *window, db.Pool.Size())
	fmt.Printf("  assembled:  %d complex objects (%d fetches, %d shared links)\n",
		n, ops.Fetched, ops.SharedLinks)
	fmt.Printf("  device:     %d reads, total seek %d pages, average seek %.1f pages/read\n",
		st.Reads, st.SeekReads, st.AvgSeekPerRead())
	fmt.Printf("  buffer:     %d hits, %d faults (%.1f%% hit rate)\n",
		db.Pool.Stats().Hits, db.Pool.Stats().Faults, 100*db.Pool.Stats().HitRate())
	fmt.Printf("  window:     peak footprint %d pages, peak reference pool %d\n",
		ops.PeakWindowPgs, ops.PeakRefPool)
}

// verify scans the raw device (no buffer pool, so corrupt pages are
// reported rather than refused).
func verify(dbPath, manifestPath string) {
	m, err := gen.LoadManifest(manifestPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asminspect: %v\n", err)
		os.Exit(1)
	}
	dev, err := disk.OpenFile(dbPath, m.PageSize)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asminspect: %v\n", err)
		os.Exit(1)
	}
	defer dev.Close()
	verifyDevice(dev, "of "+dbPath, func(id disk.PageID) string { return fmt.Sprintf("page %d", id) })
}

// verifyShards scans an entire shard fleet as verify does: each page is
// read through the rendezvous router from its owning member, so the
// scan exercises the same routing queries use, and a corrupt page is
// attributed to the shard that served it. Exits non-zero on corruption
// or on an unreachable member.
func verifyShards(endpoints string) {
	router, _, _, err := fleet.Dial(endpoints, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asminspect: %v\n", err)
		os.Exit(1)
	}
	defer router.Close()
	verifyDevice(router, fmt.Sprintf("across %d shards", router.Shards()), func(id disk.PageID) string {
		return fmt.Sprintf("page %d (shard %s)", id, router.MemberName(router.ShardOf(id)))
	})
}

// verifyDevice runs page.VerifyDevice over dev and exits non-zero
// listing every page whose stored checksum does not match its contents
// or whose slot directory is unsound, each named by name; where names
// dev in the line a clean scan prints.
func verifyDevice(dev disk.Device, where string, name func(disk.PageID) string) {
	bad, err := page.VerifyDevice(dev)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asminspect: verify: %v\n", err)
		os.Exit(1)
	}
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "asminspect: %d of %d pages FAIL verification:\n", len(bad), dev.NumPages())
		for _, id := range bad {
			fmt.Fprintf(os.Stderr, "  %s\n", name(id))
		}
		os.Exit(1)
	}
	fmt.Printf("verify: all %d pages %s pass verification\n", dev.NumPages(), where)
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = pad + l
	}
	return strings.Join(lines, "\n") + "\n"
}
