package shard

import (
	"errors"
	"testing"

	"revelation/internal/disk"
	"revelation/internal/metrics"
	"revelation/internal/pagesvc"
	"revelation/internal/trace"
)

// TestAttachTracerReachesEveryLayer attaches one tracer to a router over
// two loopback page-service clients and joins a third member after the
// attach. The one stream must carry the disk events of every client's
// arm, the net events of every client — the joiner's grow included —
// and the router's own cutover events, each equal to the counter it
// mirrors; detaching must silence all three.
func TestAttachTracerReachesEveryLayer(t *testing.T) {
	reg := metrics.NewRegistry()
	addrs := map[string]string{} // member name → its server's address
	dial := func(name string) Member {
		srv := pagesvc.NewServer([]disk.Device{disk.New(0)}, pagesvc.ServerConfig{})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		c, err := pagesvc.Dial(pagesvc.ClientConfig{Primary: addr, Dev: pagesvc.DataDev, Registry: reg, Label: name})
		if err != nil {
			t.Fatal(err)
		}
		addrs[name] = addr
		return Member{Name: name, Primary: c}
	}
	members := []Member{dial("a"), dial("b")}
	joiner := dial("c")
	r, err := New(Config{Members: members})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer joiner.Primary.Close()
	const pages = 48
	if _, err := r.Allocate(pages); err != nil {
		t.Fatal(err)
	}
	all := append(members, joiner)
	readAll := func() {
		buf := make([]byte, r.PageSize())
		for p := 0; p < pages; p++ {
			if err := r.ReadPage(disk.PageID(p), buf); err != nil {
				t.Fatal(err)
			}
		}
	}

	col := trace.NewCollector()
	disk.AttachTracer(r, trace.New(col))
	reg0 := reg.Snapshot()
	var reads0 [3]int64
	for i, m := range all {
		reads0[i] = m.Primary.Stats().Reads
	}
	delta, err := r.AddMember(joiner)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) < 2 {
		t.Fatalf("joiner owed %d pages; the test needs two cutovers", len(delta))
	}
	readAll() // pending pages still route to their old owners
	mid := delta[len(delta)/2]
	flipped := r.CutOver(0, mid, "c")
	readAll() // the flipped pages now route to the joiner

	events := col.Events()
	byEndpoint := map[string][]trace.Event{}
	for _, e := range events {
		if e.Layer == trace.LayerNet && e.Kind != trace.KindMigrate {
			byEndpoint[e.Note] = append(byEndpoint[e.Note], e)
		}
	}
	d := reg.Snapshot().Delta(reg0)
	var reads int64
	for i, m := range all {
		got := trace.ReplayEvents(byEndpoint[addrs[m.Name]])
		sends := d.Value("asm_net_sends_total", "dev", m.Name)
		if sends == 0 || got.NetSends != sends || got.NetRecvs != d.Value("asm_net_recvs_total", "dev", m.Name) {
			t.Errorf("member %s: stream has %d sends, %d recvs; its client counted %d sends, %d recvs",
				m.Name, got.NetSends, got.NetRecvs, sends, d.Value("asm_net_recvs_total", "dev", m.Name))
		}
		n := m.Primary.Stats().Reads - reads0[i]
		if n == 0 {
			t.Errorf("member %s read no page", m.Name)
		}
		reads += n
	}
	rep := trace.ReplayEvents(events)
	if rep.Reads != reads {
		t.Errorf("stream has %d disk reads, the members' arms %d", rep.Reads, reads)
	}
	if flipped == 0 || rep.PagesMigrated != int64(flipped) {
		t.Errorf("stream has %d pages migrated, the cutover flipped %d", rep.PagesMigrated, flipped)
	}

	// Detached, the same work — a read of every member, a cutover —
	// leaves the stream as it was.
	disk.AttachTracer(r, nil)
	readAll()
	if r.CutOver(mid, pages, "c") == 0 {
		t.Fatal("the second cutover flipped nothing")
	}
	if n := len(col.Events()); n != len(events) {
		t.Errorf("%d events after the detach", n-len(events))
		for _, e := range col.Events()[len(events):] {
			t.Log(e)
		}
	}
}

// growFails is a device whose Allocate always fails, so a join that must
// grow it is refused after the router has attached its tracer.
type growFails struct{ *disk.Sim }

func (growFails) Allocate(int) (disk.PageID, error) { return 0, errors.New("no room") }

// TestAddMemberFailureDetaches refuses a join at the grow and checks the
// refused device no longer traces into the router's stream: the
// router's detach only reaches members, so the join must undo its own
// attach.
func TestAddMemberFailureDetaches(t *testing.T) {
	r, err := New(Config{Members: []Member{{Name: "a", Primary: disk.New(0)}}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Allocate(8); err != nil {
		t.Fatal(err)
	}
	sim := disk.New(0)
	if _, err := sim.Allocate(1); err != nil {
		t.Fatal(err)
	}
	col := trace.NewCollector()
	disk.AttachTracer(r, trace.New(col))
	if _, err := r.AddMember(Member{Name: "b", Primary: growFails{sim}}); err == nil {
		t.Fatal("a join whose grow fails was accepted")
	}
	n := len(col.Events())
	if err := sim.ReadPage(0, make([]byte, sim.PageSize())); err != nil {
		t.Fatal(err)
	}
	if extra := len(col.Events()) - n; extra != 0 {
		t.Errorf("the refused joiner still traces: %d events after the failed join", extra)
	}
}
