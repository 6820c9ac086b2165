// Geofence audit: the spatial range query XZ* also supports (mentioned in
// the paper's conclusion). A logistics operator checks which vehicle routes
// entered a restricted zone — a rectangle on the map — without scanning the
// whole fleet's history.
//
//	go run ./examples/geofence
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	trass "repro"
	"repro/internal/gen"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "trass-geofence-*")
	if err != nil {
		log.Fatal(err)
	}
	//lint:ignore vfsseam example scaffolding: demos remove their own temp dir; not a persistence path under fault injection
	defer os.RemoveAll(dir)

	db, err := trass.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	routes := gen.Lorry(gen.LorryOptions{Seed: 33, N: 10000})
	if err := db.PutBatch(routes); err != nil {
		log.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		log.Fatal(err)
	}

	// Restricted zone: a box around one of the logistics hubs. Derive it
	// from a stored route so the demo always has hits.
	anchor := routes[4321].Points[0]
	zone := trass.Rect{
		Min: trass.Point{X: anchor.X - 0.002, Y: anchor.Y - 0.002},
		Max: trass.Point{X: anchor.X + 0.002, Y: anchor.Y + 0.002},
	}

	matches, _, err := db.Collect(ctx, trass.Query{Kind: trass.KindRange, Rect: zone})
	if err != nil {
		log.Fatal(err)
	}
	lonMin, latMin := trass.DenormalizeLonLat(zone.Min)
	lonMax, latMax := trass.DenormalizeLonLat(zone.Max)
	fmt.Printf("restricted zone lon [%.3f, %.3f] lat [%.3f, %.3f]\n",
		lonMin, lonMax, latMin, latMax)
	fmt.Printf("%d of %d routes entered the zone\n", len(matches), db.Count())
	for i, m := range matches {
		if i == 10 {
			fmt.Printf("  ... and %d more\n", len(matches)-10)
			break
		}
		fmt.Printf("  %s (%d points)\n", m.ID, len(m.Points))
	}
}
