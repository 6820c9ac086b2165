// Quickstart: open a TraSS store, load a few trajectories, and run both
// query types against it.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	trass "repro"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "trass-quickstart-*")
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

	// Three small trajectories in longitude/latitude, normalized onto the
	// index plane. Two commute along the same road; one is elsewhere.
	commute1 := trass.NewTrajectory("commute-1", lonLatPath(
		116.30, 39.90, 116.31, 39.905, 116.32, 39.91, 116.33, 39.915))
	commute2 := trass.NewTrajectory("commute-2", lonLatPath(
		116.301, 39.9005, 116.311, 39.9052, 116.321, 39.9101, 116.331, 39.9154))
	elsewhere := trass.NewTrajectory("elsewhere", lonLatPath(
		116.50, 39.80, 116.51, 39.80, 116.52, 39.81, 116.53, 39.81))

	if err := db.PutBatch([]*trass.Trajectory{commute1, commute2, elsewhere}); err != nil {
		log.Fatal(err)
	}

	// Threshold search: everything within ~0.005 degrees of commute-1.
	eps := 0.005 / 360 // degrees → normalized plane units
	matches, _, err := db.Collect(ctx, trass.Query{Kind: trass.KindThreshold, Traj: commute1, Eps: eps})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("threshold search around commute-1:")
	for _, m := range matches {
		fmt.Printf("  %-10s  distance %.6f\n", m.ID, m.Distance)
	}

	// Top-k search: the two nearest trajectories to commute-2.
	top, _, err := db.Collect(ctx, trass.Query{Kind: trass.KindTopK, Traj: commute2, K: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top-2 nearest to commute-2:")
	for i, m := range top {
		fmt.Printf("  #%d %-10s  distance %.6f\n", i+1, m.ID, m.Distance)
	}
}

// lonLatPath builds normalized points from alternating lon/lat values.
func lonLatPath(coords ...float64) []trass.Point {
	pts := make([]trass.Point, len(coords)/2)
	for i := range pts {
		pts[i] = trass.NormalizeLonLat(coords[2*i], coords[2*i+1])
	}
	return pts
}
