// Parallel assembly (paper Section 7): the exchange operator
// encapsulates parallelism, so assembly clones run over disjoint
// partitions of the root references without code changes.
//
// The example shows both sides of the Section 7 discussion:
//
//   - with round-robin partitions every clone's elevator sweeps the
//     same page range, the sweeps stay synchronized, and seek cost
//     holds up;
//   - with range partitions each clone sweeps its own disk region, the
//     interleaved requests ping-pong between regions ("each assumes
//     sole control of the device"), and seek cost degrades;
//   - the proposed remedy, a server per device (disk.Server), re-batches
//     all clients' outstanding requests into one SCAN order.
package main

import (
	"fmt"
	"log"
	"runtime"
	"sort"
	"time"

	"revelation"
	"revelation/internal/assembly"
	"revelation/internal/disk"
	"revelation/internal/gen"
	"revelation/internal/volcano"
)

func main() {
	db, err := gen.Build(gen.Config{
		NumComplexObjects: 1000,
		Clustering:        gen.Unclustered,
		Seed:              5,
	})
	if err != nil {
		log.Fatal(err)
	}

	runParts := func(parts [][]volcano.Item) (int, disk.Stats) {
		if err := db.Pool.EvictAll(); err != nil {
			log.Fatal(err)
		}
		db.Device.ResetStats()
		db.Device.ResetHead()
		plan := volcano.NewExchange(len(parts), func(part int) (volcano.Iterator, error) {
			return assembly.New(volcano.NewSlice(parts[part]), db.Store, db.Template,
				assembly.Options{Window: 25, Scheduler: assembly.Elevator}), nil
		})
		n, err := volcano.Count(plan)
		if err != nil {
			log.Fatal(err)
		}
		return n, db.Device.Stats()
	}

	items := make([]volcano.Item, len(db.Roots))
	for i, r := range db.Roots {
		items[i] = r
	}

	fmt.Println("parallel assembly over one shared device (unclustered, 1000 complex objects):")
	fmt.Println("\nround-robin partitions (clones sweep the same range, staying in step):")
	for _, degree := range []int{1, 2, 4, 8} {
		n, st := runParts(volcano.PartitionSlice(items, degree))
		fmt.Printf("  degree %d: %4d assembled, %6d reads, avg seek %7.1f pages\n",
			degree, n, st.Reads, st.AvgSeekPerRead())
	}

	fmt.Println("\nrange partitions (each clone owns a disk region; queues fight for the head):")
	for _, degree := range []int{1, 2, 4, 8} {
		n, st := runParts(rangePartition(db, items, degree))
		fmt.Printf("  degree %d: %4d assembled, %6d reads, avg seek %7.1f pages\n",
			degree, n, st.Reads, st.AvgSeekPerRead())
	}
	fmt.Println("\n(simulated reads take microseconds, so clones rarely interleave and the")
	fmt.Println("contention stays mild; on a real device every read blocks and the queues")
	fmt.Println("interleave request by request — modeled below by yielding between reads)")

	fmt.Println("\nindependent queues vs the Section 7 remedy, a server per device that")
	fmt.Println("re-batches all clients' outstanding requests into SCAN order (disk.Server):")
	demoServerSweep(db)

	// Verify parallel output equals serial output as a set.
	serial, err := assembledSet(db, 1)
	if err != nil {
		log.Fatal(err)
	}
	parallel, err := assembledSet(db, 4)
	if err != nil {
		log.Fatal(err)
	}
	if len(serial) != len(parallel) {
		log.Fatalf("parallel produced %d, serial %d", len(parallel), len(serial))
	}
	for oid := range serial {
		if !parallel[oid] {
			log.Fatalf("parallel output missing %v", oid)
		}
	}
	fmt.Printf("\nparallel output verified: same %d complex objects as serial execution\n", len(serial))
}

// rangePartition splits the roots into contiguous physical ranges, so
// each clone works a different area of the disk.
func rangePartition(db *gen.Database, items []volcano.Item, n int) [][]volcano.Item {
	sorted := append([]volcano.Item(nil), items...)
	pageOf := func(it volcano.Item) uint32 {
		rid, _, err := db.Store.WhereIs(it.(revelation.OID))
		if err != nil {
			log.Fatal(err)
		}
		return uint32(rid.Page)
	}
	sort.Slice(sorted, func(a, b int) bool { return pageOf(sorted[a]) < pageOf(sorted[b]) })
	out := make([][]volcano.Item, n)
	chunk := (len(sorted) + n - 1) / n
	for i, it := range sorted {
		out[i/chunk] = append(out[i/chunk], it)
	}
	return out
}

func assembledSet(db *gen.Database, degree int) (map[revelation.OID]bool, error) {
	if err := db.Pool.EvictAll(); err != nil {
		return nil, err
	}
	plan := assembly.NewParallel(db.Roots, db.Store, db.Template,
		assembly.Options{Window: 10, Scheduler: assembly.Elevator}, degree)
	items, err := volcano.Drain(nil, plan)
	if err != nil {
		return nil, err
	}
	out := map[revelation.OID]bool{}
	for _, it := range items {
		out[it.(*revelation.Instance).OID()] = true
	}
	return out, nil
}

func demoServerSweep(db *gen.Database) {
	dev := db.Device
	read := func(direct bool, srv *disk.Server) float64 {
		dev.ResetStats()
		dev.ResetHead()
		done := make(chan struct{})
		for c := 0; c < 32; c++ {
			go func(c int) {
				defer func() { done <- struct{}{} }()
				buf := make([]byte, dev.PageSize())
				for i := 0; i < 50; i++ {
					p := disk.PageID((c*1327 + i*613) % dev.NumPages())
					var err error
					if direct {
						err = dev.ReadPage(p, buf)
						// A real read blocks its issuer; yield so the
						// eight queues interleave per request.
						runtime.Gosched()
					} else {
						err = srv.Read(p, buf)
					}
					if err != nil {
						log.Fatal(err)
					}
				}
			}(c)
		}
		for c := 0; c < 32; c++ {
			<-done
		}
		return dev.Stats().AvgSeekPerRead()
	}
	direct := read(true, nil)
	srv := disk.NewServer(dev)
	srv.SetBatchWait(500 * time.Microsecond)
	defer srv.Close()
	served := read(false, srv)
	fmt.Printf("  32 clients, 1600 scattered reads, independent queues: avg seek %7.1f pages\n", direct)
	fmt.Printf("  same workload through the per-device server:        avg seek %7.1f pages\n", served)
}
