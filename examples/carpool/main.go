// Carpool matching: the paper's second motivating use case. For each
// commuter, a top-k similarity search finds the neighbours with the most
// similar daily routes; mutually-near routes form carpool groups. This
// exercises the best-first top-k path (Algorithm 4) rather than the
// threshold path.
//
//	go run ./examples/carpool
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"

	trass "repro"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "trass-carpool-*")
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

	// Build commuter routes: 8 corridors through the city, each shared by a
	// handful of commuters with small personal detours, plus scattered
	// drivers who match nobody.
	rng := rand.New(rand.NewSource(11))
	var all []*trass.Trajectory
	for corridor := 0; corridor < 8; corridor++ {
		base := randomRoute(rng)
		for p := 0; p < 4+rng.Intn(4); p++ {
			id := fmt.Sprintf("corridor%d-driver%d", corridor, p)
			all = append(all, jitterRoute(rng, id, base, 0.00002))
		}
	}
	for s := 0; s < 40; s++ {
		all = append(all, jitterRoute(rng, fmt.Sprintf("solo-%d", s), randomRoute(rng), 0.0005))
	}
	if err := db.PutBatch(all); err != nil {
		log.Fatal(err)
	}

	// For a few drivers, find their 3 best carpool partners.
	for _, id := range []string{"corridor0-driver0", "corridor3-driver1", "solo-5"} {
		q := findRoute(all, id)
		top, _, err := db.Collect(ctx, trass.Query{Kind: trass.KindTopK, Traj: q, K: 4}) // self + 3 partners
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s — best partners:\n", id)
		for _, m := range top {
			if m.ID == id {
				continue
			}
			fmt.Printf("  %-22s  route distance %.6f\n", m.ID, m.Distance)
		}
	}
}

func randomRoute(rng *rand.Rand) []trass.Point {
	// A route across a ~0.003-wide city box on the normalized plane.
	cx, cy := 0.82+rng.Float64()*0.003, 0.72+rng.Float64()*0.003
	dx, dy := (rng.Float64()-0.5)*0.002, (rng.Float64()-0.5)*0.002
	n := 30 + rng.Intn(30)
	pts := make([]trass.Point, n)
	for i := range pts {
		f := float64(i) / float64(n-1)
		pts[i] = trass.Point{X: cx + f*dx, Y: cy + f*dy}
	}
	return pts
}

func jitterRoute(rng *rand.Rand, id string, base []trass.Point, j float64) *trass.Trajectory {
	pts := make([]trass.Point, len(base))
	for i, p := range base {
		pts[i] = trass.Point{X: p.X + (rng.Float64()-0.5)*j, Y: p.Y + (rng.Float64()-0.5)*j}
	}
	return trass.NewTrajectory(id, pts)
}

func findRoute(all []*trass.Trajectory, id string) *trass.Trajectory {
	for _, t := range all {
		if t.ID == id {
			return t
		}
	}
	log.Fatalf("route %s not found", id)
	return nil
}
