package fleet

import (
	"fmt"
	"strings"

	"revelation/internal/metrics"
	"revelation/internal/pagesvc"
	"revelation/internal/shard"
)

// Dial turns an endpoint spec into the fleet's data plane: a
// shard.Router over one pagesvc.Client per endpoint. The spec is
// comma-separated, one entry per shard, each "primary" or
// "primary/replica" (see cmd/asmpaged); a one-entry spec is a single
// page service behind a one-member router. Shard i is named "s<i>", and
// its clients' asm_net_* series are labelled "net-s<i>" and "net-s<i>r"
// in reg (nil registers nothing). The typed clients are returned beside
// the router for the control plane's probes and promotions;
// replicas[i] is nil where entry i names none. Closing the router
// closes them all. A client sends each request once: the router above
// it is the one retry layer, so its breaker sees every failure and its
// retries draw on the query's Budget.
func Dial(spec string, reg *metrics.Registry) (router *shard.Router, primaries, replicas []*pagesvc.Client, err error) {
	entries := strings.Split(spec, ",")
	prims := make([]*pagesvc.Client, len(entries))
	repls := make([]*pagesvc.Client, len(entries))
	members := make([]shard.Member, len(entries))
	fail := func(err error) (*shard.Router, []*pagesvc.Client, []*pagesvc.Client, error) {
		for _, c := range append(prims, repls...) {
			if c != nil {
				c.Close()
			}
		}
		return nil, nil, nil, err
	}
	dial := func(addr, label string) (*pagesvc.Client, error) {
		return pagesvc.Dial(pagesvc.ClientConfig{
			Primary:  addr,
			Dev:      pagesvc.DataDev,
			Registry: reg,
			Label:    label,
		})
	}
	for i, entry := range entries {
		primary, replica, _ := strings.Cut(strings.TrimSpace(entry), "/")
		if prims[i], err = dial(primary, fmt.Sprintf("net-s%d", i)); err != nil {
			return fail(fmt.Errorf("shard %d (%s): %w", i, primary, err))
		}
		members[i] = shard.Member{Name: fmt.Sprintf("s%d", i), Primary: prims[i]}
		if replica == "" {
			continue
		}
		rc, err := dial(replica, fmt.Sprintf("net-s%dr", i))
		if err != nil {
			return fail(fmt.Errorf("shard %d replica (%s): %w", i, replica, err))
		}
		repls[i] = rc
		members[i].Replica = rc
		members[i].AppliedLSN = func() uint64 {
			lsn, err := rc.AppliedLSN()
			if err != nil {
				return 0
			}
			return lsn
		}
	}
	router, err = shard.New(shard.Config{Members: members, Registry: reg})
	if err != nil {
		return fail(err)
	}
	return router, prims, repls, nil
}
