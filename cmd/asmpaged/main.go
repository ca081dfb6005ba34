// Command asmpaged serves a database device file (and optionally its
// WAL) over the page-service wire protocol, so compute nodes running
// asmquery/asmserve can stack their buffer pools and WAL writers on
// pages that live in another process or on another machine.
//
// Primary — serve data pages and the log:
//
//	asmpaged -addr :7070 -db db.pages -wal db.wal
//
// Read replica — keep a local copy current by following the primary's
// WAL, and serve it READ-ONLY with the applied LSN published for the
// client's failover staleness guard:
//
//	asmpaged -addr :7071 -db replica.pages -follow primary:7070
//
// A replica stays fenced against writes until a fleet controller
// promotes it (the promote RPC with writable set): it then stops
// following, serves writes at the bumped fencing epoch, and rejects
// requests still stamped with the old primary's epoch. -metrics's
// /statusz reports the live role and epoch.
//
// Seed the replica file from a base backup (cp db.pages replica.pages)
// for fast catch-up; an empty file also converges, it just replays the
// whole log. On restart the applied-LSN watermark is primed from the
// highest page LSN on the local device, so Follow resumes rather than
// replaying from zero. A backup older than that on some page stops the
// replica at wal.ErrDeltaGap: seed the file again, or empty it.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"revelation/internal/disk"
	"revelation/internal/metrics"
	"revelation/internal/page"
	"revelation/internal/pagesvc"
	"revelation/internal/qtrace"
)

func main() {
	addr := flag.String("addr", ":7070", "address to serve the page service on")
	dbPath := flag.String("db", "db.pages", "data device file")
	walPath := flag.String("wal", "", "WAL device file (primary mode; created if missing)")
	follow := flag.String("follow", "", "primary address to follow as a read replica")
	pageSize := flag.Int("page-size", disk.DefaultPageSize, "device page size in bytes")
	metricsAddr := flag.String("metrics", "", "optional address serving /metrics (e.g. :9090)")
	brownout := flag.String("brownout", "", "arm a seeded brownout episode on the data device: start,len,ramp,stall (access ordinals and a stall duration, e.g. 200,400,100,2ms) — for exercising client breakers and failover")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the brownout injector's deterministic decisions")
	flag.Parse()

	if *follow != "" && *walPath != "" {
		fail("-wal and -follow are mutually exclusive: a replica receives the log over Follow")
	}

	reg := metrics.NewRegistry()
	data, err := disk.OpenFile(*dbPath, *pageSize)
	if err != nil {
		fail("%v", err)
	}
	defer data.Close()

	serveData := disk.Device(data)
	if *brownout != "" {
		cfg, err := brownoutConfig(*brownout, *faultSeed)
		if err != nil {
			fail("%v", err)
		}
		faulty := disk.NewFaulty(data, cfg)
		// Registers the injection counters and forwards to the wrapped
		// file device, so "data" carries the whole stack.
		faulty.RegisterMetrics(reg, "data")
		serveData = faulty
		fmt.Printf("asmpaged: brownout armed: accesses [%d, %d), ramp %d, stall %v\n",
			cfg.BrownoutStart, cfg.BrownoutStart+cfg.BrownoutLen, cfg.BrownoutRamp, cfg.BrownoutStall)
	} else {
		data.RegisterMetrics(reg, "data")
	}

	devs := []disk.Device{serveData}
	// Requests arriving with a query id (protocol v2) build server-side
	// traces; the -metrics mux exposes them on /tracez.
	qt := qtrace.NewCollector(0)
	cfg := pagesvc.ServerConfig{Registry: reg, QTrace: qt}

	var repl *pagesvc.Replica
	role := "primary"
	switch {
	case *follow != "":
		repl = pagesvc.NewReplica(data, pagesvc.ReplicaConfig{
			Primary:  *follow,
			WALDev:   pagesvc.WALDev,
			Registry: reg,
		})
		repl.SetAppliedLSN(maxPageLSN(data))
		done := repl.Start()
		go func() {
			if err := <-done; err != nil {
				fmt.Fprintf(os.Stderr, "asmpaged: stopped following %s at LSN %d: %v\n", *follow, repl.AppliedLSN(), err)
			}
		}()
		defer repl.Close()
		cfg.AppliedLSN = repl.AppliedLSN
		// A follower serves reads only; writes are fenced until a fleet
		// controller promotes it. Promotion to writable stops the
		// follower loop — the old primary's log is no longer
		// authoritative once this replica is the write master.
		cfg.ReadOnly = true
		cfg.OnPromote = func(epoch uint64, writable bool) {
			if writable {
				fmt.Printf("asmpaged: promoted to writable primary at epoch %d, stopping follower\n", epoch)
				go repl.Close()
			} else {
				fmt.Printf("asmpaged: epoch bumped to %d (still read-only)\n", epoch)
			}
		}
		role = "replica"
		fmt.Printf("asmpaged: read-only replica of %s, resuming after LSN %d\n", *follow, repl.AppliedLSN())
	case *walPath != "":
		walDev, err := disk.OpenFile(*walPath, *pageSize)
		if err != nil {
			fail("%v", err)
		}
		defer walDev.Close()
		walDev.RegisterMetrics(reg, "wal")
		devs = append(devs, walDev)
		fmt.Printf("asmpaged: primary, %d data pages, %d WAL pages\n", data.NumPages(), walDev.NumPages())
	default:
		role = "read-mostly"
		fmt.Printf("asmpaged: serving %d pages read-mostly (no WAL, no follow)\n", data.NumPages())
	}

	srv := pagesvc.NewServer(devs, cfg)
	bound, err := srv.Listen(*addr)
	if err != nil {
		fail("%v", err)
	}
	defer srv.Close()
	fmt.Printf("asmpaged: page service on %s\n", bound)

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/tracez", qtrace.Handler(qt))
		// /statusz answers the fleet-operator question "who is this
		// member right now": a promoted replica reports itself a primary
		// at its bumped epoch.
		mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			liveRole := role
			if role == "replica" && !srv.ReadOnly() {
				liveRole = "promoted primary"
			}
			fmt.Fprintf(w, "role: %s\nepoch: %d\npages: %d\n", liveRole, srv.Epoch(), data.NumPages())
			if repl != nil {
				fmt.Fprintf(w, "applied lsn: %d\n", repl.AppliedLSN())
			}
		})
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "asmpaged: metrics: %v\n", err)
			}
		}()
		fmt.Printf("asmpaged: metrics on %s/metrics, traces on /tracez, role on /statusz\n", *metricsAddr)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	<-stop
	fmt.Println("asmpaged: shutting down")
}

// brownoutConfig parses the -brownout spec "start,len,ramp,stall" into
// a fault configuration. The episode runs on the device's access clock
// (not wall time), so a client driving a steady read load sees the
// outage at a predictable point in its request stream.
func brownoutConfig(spec string, seed int64) (disk.FaultConfig, error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 4 {
		return disk.FaultConfig{}, fmt.Errorf("bad -brownout %q: want start,len,ramp,stall (e.g. 200,400,100,2ms)", spec)
	}
	var nums [3]int64
	for i := 0; i < 3; i++ {
		v, err := strconv.ParseInt(strings.TrimSpace(parts[i]), 10, 64)
		if err != nil || v < 0 {
			return disk.FaultConfig{}, fmt.Errorf("bad -brownout field %q: want a non-negative access count", parts[i])
		}
		nums[i] = v
	}
	stall, err := time.ParseDuration(strings.TrimSpace(parts[3]))
	if err != nil || stall < 0 {
		return disk.FaultConfig{}, fmt.Errorf("bad -brownout stall %q: want a non-negative Go duration like 2ms", parts[3])
	}
	if nums[1] <= 0 {
		return disk.FaultConfig{}, fmt.Errorf("bad -brownout %q: len must be positive", spec)
	}
	return disk.FaultConfig{
		Seed:          seed,
		BrownoutStart: nums[0],
		BrownoutLen:   nums[1],
		BrownoutRamp:  nums[2],
		BrownoutStall: stall,
	}, nil
}

// maxPageLSN scans the device for the highest stamped page LSN — the
// conservative replication watermark after a restart: every WAL record
// at or below it has been applied to some page image on this device.
func maxPageLSN(dev disk.Device) uint64 {
	buf := make([]byte, dev.PageSize())
	var max uint64
	for p := 0; p < dev.NumPages(); p++ {
		if err := dev.ReadPage(disk.PageID(p), buf); err != nil {
			continue
		}
		if lsn := page.Wrap(buf).LSN(); lsn > max {
			max = lsn
		}
	}
	return max
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "asmpaged: "+format+"\n", args...)
	os.Exit(1)
}
