package stats

import (
	"testing"

	"revelation/internal/assembly"
	"revelation/internal/gen"
	"revelation/internal/object"
)

func buildShared(t *testing.T, sharing float64) *gen.Database {
	t.Helper()
	db, err := gen.Build(gen.Config{NumComplexObjects: 500, Sharing: sharing, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCollectSharingFindsLeafSharing(t *testing.T) {
	db := buildShared(t, 0.25)
	// Start from a blank template (no annotations).
	tmpl := db.Template.Clone()
	tmpl.Walk(func(n *assembly.Template, _ int) { n.Shared = false; n.SharingDegree = 0 })

	reports, err := CollectSharing(db.Store, tmpl, db.Roots, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 7 {
		t.Fatalf("reports = %d", len(reports))
	}
	// Inner nodes (positions B, C) are unshared: degree ~1.
	for _, name := range []string{"B", "C"} {
		n := tmpl.FindByName(name)
		if n.Shared {
			t.Errorf("inner node %s marked shared", name)
		}
	}
	// Leaves: degree should approximate the generator's 0.25 (random
	// draws hit most of each pool; tolerance is generous).
	for _, name := range []string{"D", "E", "F", "G"} {
		n := tmpl.FindByName(name)
		if !n.Shared {
			t.Fatalf("leaf %s not marked shared", name)
		}
		if n.SharingDegree < 0.15 || n.SharingDegree > 0.35 {
			t.Errorf("leaf %s degree = %v, want ~0.25", name, n.SharingDegree)
		}
	}
}

func TestCollectSharingNoSharing(t *testing.T) {
	db := buildShared(t, 0)
	tmpl := db.Template.Clone()
	if _, err := CollectSharing(db.Store, tmpl, db.Roots, 100); err != nil {
		t.Fatal(err)
	}
	tmpl.Walk(func(n *assembly.Template, _ int) {
		if n.Shared {
			t.Errorf("node %s marked shared in a sharing-free database", n.Name)
		}
	})
}

func TestCollectSharingSampling(t *testing.T) {
	db := buildShared(t, 0.25)
	tmpl := db.Template.Clone()
	reports, err := CollectSharing(db.Store, tmpl, db.Roots, 50)
	if err != nil {
		t.Fatal(err)
	}
	// The root report must show exactly the sample size.
	if reports[0].Refs != 50 {
		t.Errorf("sampled %d roots, want 50", reports[0].Refs)
	}
}

func TestCollectSharingErrors(t *testing.T) {
	db := buildShared(t, 0)
	if _, err := CollectSharing(db.Store, nil, db.Roots, 0); err == nil {
		t.Error("nil template accepted")
	}
	if _, err := CollectSharing(db.Store, db.Template, []object.OID{999999}, 0); err == nil {
		t.Error("dangling root not reported")
	}
}
