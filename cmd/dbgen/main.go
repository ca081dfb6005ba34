// Command dbgen generates a benchmark database of complex objects onto
// a file-backed device, together with a manifest that cmd/asminspect
// and user programs reopen it from.
//
// Usage:
//
//	dbgen -out db.pages -manifest db.manifest \
//	      -objects 4000 -clustering inter -sharing 0.25 -seed 91
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"revelation/internal/disk"
	"revelation/internal/gen"
)

func main() {
	out := flag.String("out", "db.pages", "device file to create")
	manifest := flag.String("manifest", "db.manifest", "manifest file to create")
	objects := flag.Int("objects", 1000, "number of complex objects")
	clustering := flag.String("clustering", "unclustered", "unclustered | inter | intra")
	sharing := flag.Float64("sharing", 0, "leaf sharing degree (0 disables)")
	levels := flag.Int("levels", 3, "tree levels per complex object")
	fanout := flag.Int("fanout", 2, "children per inner component")
	seed := flag.Int64("seed", 91, "generation seed")
	flag.Parse()

	var cl gen.Clustering
	switch strings.ToLower(*clustering) {
	case "unclustered", "none":
		cl = gen.Unclustered
	case "inter", "inter-object":
		cl = gen.InterObject
	case "intra", "intra-object":
		cl = gen.IntraObject
	default:
		fmt.Fprintf(os.Stderr, "dbgen: unknown clustering %q\n", *clustering)
		os.Exit(2)
	}

	// A fresh device file: refuse to clobber silently.
	if _, err := os.Stat(*out); err == nil {
		fmt.Fprintf(os.Stderr, "dbgen: %s already exists\n", *out)
		os.Exit(1)
	}
	dev, err := disk.OpenFile(*out, disk.DefaultPageSize)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dbgen: %v\n", err)
		os.Exit(1)
	}

	db, err := gen.Build(gen.Config{
		NumComplexObjects: *objects,
		Levels:            *levels,
		Fanout:            *fanout,
		Clustering:        cl,
		Sharing:           *sharing,
		Seed:              *seed,
		Device:            dev,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dbgen: %v\n", err)
		os.Exit(1)
	}
	if err := db.Pool.FlushAll(); err != nil {
		fmt.Fprintf(os.Stderr, "dbgen: flush: %v\n", err)
		os.Exit(1)
	}
	if err := db.SaveManifest(*manifest); err != nil {
		fmt.Fprintf(os.Stderr, "dbgen: manifest: %v\n", err)
		os.Exit(1)
	}
	if err := dev.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "dbgen: close: %v\n", err)
		os.Exit(1)
	}
	n := db.Store.Locator.Len()
	fmt.Printf("dbgen: %d complex objects (%d components, %d objects) on %d pages, %s clustering\n",
		*objects, db.NodesPerObject, n, db.Store.File.NumPages(), cl)
	fmt.Printf("dbgen: device %s, manifest %s\n", *out, *manifest)
}
