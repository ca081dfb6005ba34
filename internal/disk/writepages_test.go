package disk_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"revelation/internal/difftest"
	"revelation/internal/disk"
	"revelation/internal/pagesvc"
	"revelation/internal/shard"
)

// wpPages and wpSize are the geometry of every medium under a
// writeStack.
const wpPages, wpSize = 24, 512

// writeStack is a device a run is written through and everything under
// it whose state the write may change: the media, the disk.Faulty over
// each, and every device that books on an arm of its own.
type writeStack struct {
	dev     disk.Device
	sims    []*disk.Sim
	faulty  []*disk.Faulty
	clients []*pagesvc.Client
	arms    []disk.Device
}

// medium adds a Sim of wpPages pages, under a Faulty with no fault set,
// to st and returns the Faulty.
func (st *writeStack) medium(t *testing.T) *disk.Faulty {
	sim := disk.NewSim(wpSize, 0)
	if _, err := sim.Allocate(wpPages); err != nil {
		t.Fatal(err)
	}
	f := disk.NewFaulty(sim, disk.FaultConfig{})
	st.sims, st.faulty, st.arms = append(st.sims, sim), append(st.faulty, f), append(st.arms, sim)
	return f
}

// served adds a medium behind a loopback page server, and a client of
// it, to st and returns the client.
func (st *writeStack) served(t *testing.T) *pagesvc.Client {
	srv := pagesvc.NewServer([]disk.Device{st.medium(t)}, pagesvc.ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := pagesvc.Dial(pagesvc.ClientConfig{Primary: addr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	st.clients, st.arms = append(st.clients, c), append(st.arms, c)
	return c
}

// writeStacks builds each kind of device a run can be written through:
// a Sim, one page-service client, a two-member router over two clients,
// and that router after a third member joined, with the pages it is owed
// in the lower half of the space fenced.
var writeStacks = []struct {
	name string
	open func(t *testing.T) *writeStack
}{
	{"sim", func(t *testing.T) *writeStack {
		st := &writeStack{}
		st.dev = st.medium(t)
		return st
	}},
	{"client", func(t *testing.T) *writeStack {
		st := &writeStack{}
		st.dev = st.served(t)
		return st
	}},
	{"router", func(t *testing.T) *writeStack {
		st := &writeStack{}
		st.dev = twoMembers(t, st)
		return st
	}},
	{"router-fenced", func(t *testing.T) *writeStack {
		st := &writeStack{}
		r := twoMembers(t, st)
		owed, err := r.AddMember(shard.Member{Name: "c", Primary: st.medium(t)})
		if err != nil {
			t.Fatal(err)
		}
		if n := r.FenceRange(0, wpPages/2); n == 0 || n == len(owed) {
			t.Fatalf("%d of the %d pages owed fenced, want some but not all", n, len(owed))
		}
		st.dev = r
		return st
	}},
}

func twoMembers(t *testing.T, st *writeStack) *shard.Router {
	r, err := shard.New(shard.Config{Members: []shard.Member{
		{Name: "a", Primary: st.served(t)}, {Name: "b", Primary: st.served(t)}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	st.arms = append(st.arms, r)
	return r
}

// writeCases are the conditions a run is written under. Each may change
// the run, the stack or both, drawing from rng; it reports false when it
// does not apply to the stack.
var writeCases = []struct {
	name  string
	apply func(t *testing.T, st *writeStack, ids []disk.PageID, bufs [][]byte, rng *rand.Rand) bool
}{
	{"in range", func(*testing.T, *writeStack, []disk.PageID, [][]byte, *rand.Rand) bool { return true }},
	{"out of range", func(_ *testing.T, _ *writeStack, ids []disk.PageID, _ [][]byte, rng *rand.Rand) bool {
		ids[rng.Intn(len(ids))] = disk.PageID(wpPages + rng.Intn(3))
		return true
	}},
	{"bad length", func(_ *testing.T, _ *writeStack, _ []disk.PageID, bufs [][]byte, rng *rand.Rand) bool {
		i := rng.Intn(len(bufs))
		bufs[i] = bufs[i][:wpSize-1]
		return true
	}},
	{"closed", func(t *testing.T, st *writeStack, _ []disk.PageID, _ [][]byte, _ *rand.Rand) bool {
		if err := st.dev.Close(); err != nil {
			t.Fatal(err)
		}
		return true
	}},
	{"read-only server", func(t *testing.T, st *writeStack, _ []disk.PageID, _ [][]byte, _ *rand.Rand) bool {
		if len(st.clients) == 0 {
			return false
		}
		if err := st.clients[0].Promote(1, 0, false); err != nil {
			t.Fatal(err)
		}
		return true
	}},
	{"torn mid-run", func(_ *testing.T, st *writeStack, ids []disk.PageID, _ [][]byte, rng *rand.Rand) bool {
		st.faulty[0].CrashAfter(int64(1+rng.Intn(len(ids))), true, rng.Int63())
		return true
	}},
}

// wpSentinels are the errors a verdict is compared by.
var wpSentinels = []error{
	disk.ErrOutOfRange, disk.ErrBadLength, disk.ErrClosed, disk.ErrCrashed,
	disk.ErrTransient, disk.ErrPermanent, pagesvc.ErrFenced, shard.ErrFencedPage,
	shard.ErrShardDown,
}

// verdict is err as the comparison sees it: whether it is nil, and
// which of wpSentinels it is.
func verdict(err error) string {
	if err == nil {
		return "ok"
	}
	v := "error"
	for _, s := range wpSentinels {
		if errors.Is(err, s) {
			v += " " + s.Error()
		}
	}
	return v
}

// TestWritePagesMatchesWritePage writes seeded runs — up to a dozen
// pages drawn with repeats from the device, each with an image of its
// own — through every kind of writeStack under every writeCase, once
// with disk.WritePages and once, on a second stack built the same way,
// with the loop of WritePage it stands for. Every page's verdict, every
// arm's Stats and every medium's bytes must come out identical. A
// seed's steps are its runs, one per stack and case. The seeds drop
// under -short alone: a dozen cost little under the race detector,
// and these are the write paths it watches.
func TestWritePagesMatchesWritePage(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	t.Parallel()
	difftest.Walk(t, 1, seeds, func(s *difftest.Seq) {
		for s.Step = 0; s.Step < len(writeStacks)*len(writeCases); s.Step++ {
			kind, wc := writeStacks[s.Step/len(writeCases)], writeCases[s.Step%len(writeCases)]
			s.Tag = kind.name + "/" + wc.name
			var verdicts [2][]string
			var stacks [2]*writeStack
			for side := range stacks {
				rng := rand.New(rand.NewSource(s.Seed))
				ids, bufs := make([]disk.PageID, 1+rng.Intn(12)), [][]byte{}
				for i := range ids {
					ids[i] = disk.PageID(rng.Intn(wpPages))
					img := make([]byte, wpSize)
					rng.Read(img)
					bufs = append(bufs, img)
				}
				st := kind.open(t)
				if !wc.apply(t, st, ids, bufs, rng) {
					break
				}
				errs := make([]error, len(ids))
				if side == 0 {
					disk.WritePages(st.dev, ids, bufs, errs)
				} else {
					for i, p := range ids {
						errs[i] = st.dev.WritePage(p, bufs[i])
					}
				}
				for _, err := range errs {
					verdicts[side] = append(verdicts[side], verdict(err))
				}
				stacks[side] = st
			}
			if stacks[1] == nil {
				continue
			}
			if !slices.Equal(verdicts[0], verdicts[1]) {
				s.Fatalf("verdicts\n %q\nwant the loop's\n %q", verdicts[0], verdicts[1])
			}
			a, b := stacks[0], stacks[1]
			for i := range a.arms {
				if sa, sb := a.arms[i].Stats(), b.arms[i].Stats(); sa != sb {
					s.Fatalf("arm %d Stats %+v, the loop's %+v", i, sa, sb)
				}
			}
			for i := range a.sims {
				if !sameBytes(a.sims[i], b.sims[i]) {
					s.Fatalf("medium %d differs from the loop's", i)
				}
			}
		}
	})
}

// sameBytes reports whether two media hold the same pages: the same
// bytes where both read, the same refusal where neither does (a closed
// medium).
func sameBytes(a, b *disk.Sim) bool {
	if a.NumPages() != b.NumPages() {
		return false
	}
	pa, pb := make([]byte, wpSize), make([]byte, wpSize)
	for p := disk.PageID(0); int(p) < a.NumPages(); p++ {
		ea, eb := a.ReadPage(p, pa), b.ReadPage(p, pb)
		if verdict(ea) != verdict(eb) || ea == nil && !slices.Equal(pa, pb) {
			return false
		}
	}
	return true
}
