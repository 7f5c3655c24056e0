package main

import (
	"fmt"
	"sync"
	"time"

	"knor/internal/netcluster"
	"knor/internal/simclock"
)

// netExp compares the two netcluster transports on the collective the
// trainers actually run — the ring allgather of per-rank accumulator
// blocks — at the payload scales that matter: the k=100 d=16 float64
// accumulator (~13 KB, one training iteration's merge) and a 1 MiB
// block (shard-push scale). The simulated column is modeled time from
// the SimGroup's per-frame alpha-beta charge on the rank clocks — the
// same network cost the simulated knord/MPI/MLlib figures pay; the TCP
// column is measured wall time for real OS sockets on loopback,
// all ranks in-process. The two columns answer different questions —
// "what does the model predict for a datacenter network" vs "what
// does the deployable path actually cost here" — and the table is the
// EXPERIMENTS.md sim-vs-real record. Frames on both paths carry
// identical bytes; only the substrate differs.
func netExp(e env) {
	rounds := 64
	machines := []int{2, 3, 4}
	if e.quick {
		rounds = 16
		machines = []int{2, 3}
	}
	payloads := []int{100 * 16 * 8, 1 << 20}

	var rows [][]string
	for _, m := range machines {
		for _, payload := range payloads {
			simPer := netSimRounds(m, payload, rounds)
			tcpPer, mbs := netTCPRounds(m, payload, rounds)
			rows = append(rows, []string{
				fmt.Sprintf("%d", m),
				fmt.Sprintf("%dKB", payload/1024),
				fmt.Sprintf("%d", rounds),
				fmt.Sprintf("%.3f", simPer*1e3),
				fmt.Sprintf("%.3f", tcpPer*1e3),
				fmt.Sprintf("%.0f", mbs),
			})
		}
	}
	fmt.Println("  ring allgather, one block per rank, both transports moving identical frames")
	fmt.Println()
	printTable(
		[]string{"machines", "block", "rounds", "sim-ms/round", "tcp-ms/round", "tcp-MB/s/rank"},
		rows)
}

// netSimRounds runs the allgather over the simulated mesh and returns
// modeled seconds per round: the furthest machine clock, divided by
// the round count.
func netSimRounds(m, payload, rounds int) float64 {
	g := netcluster.NewSimGroup(m, simclock.DefaultCostModel())
	defer g.Close()
	runAllgatherRanks(m, payload, rounds, func(r int) netcluster.Transport {
		return g.Transport(r)
	})
	max := 0.0
	for i := 0; i < m; i++ {
		if t := g.Transport(i).Clock().Now(); t > max {
			max = t
		}
	}
	return max / float64(rounds)
}

// netTCPRounds runs the same allgather over real loopback sockets and
// returns measured wall seconds per round plus per-rank transmit
// throughput (each rank forwards M-1 blocks per round).
func netTCPRounds(m, payload, rounds int) (perRound, mbPerSec float64) {
	ln, err := netcluster.ListenLoopback()
	if err != nil {
		panic(err)
	}
	addr := ln.Addr().String()
	ts := make([]netcluster.Transport, m)
	var boot sync.WaitGroup
	for r := 0; r < m; r++ {
		boot.Add(1)
		go func(r int) {
			defer boot.Done()
			opts := netcluster.TCPOptions{Digest: "bench:net"}
			if r == 0 {
				opts.Listener, opts.Machines = ln, m
			} else {
				opts.Listen, opts.Join = "127.0.0.1:0", addr
			}
			tr, err := netcluster.DialCluster(opts)
			if err != nil {
				panic(err)
			}
			// Ranks are assigned in join-arrival order, not goroutine
			// index order; store by the transport's own rank.
			ts[tr.Rank()] = tr
		}(r)
	}
	boot.Wait()
	defer func() {
		for _, tr := range ts {
			tr.Close()
		}
	}()

	start := time.Now()
	runAllgatherRanks(m, payload, rounds, func(r int) netcluster.Transport {
		return ts[r]
	})
	wall := time.Since(start).Seconds()
	perRound = wall / float64(rounds)
	bytesTx := float64(rounds) * float64(m-1) * float64(payload)
	return perRound, bytesTx / wall / 1e6
}

// runAllgatherRanks drives every rank's side of `rounds` back-to-back
// allgathers concurrently, each rank contributing one payload-sized
// block per round.
func runAllgatherRanks(m, payload, rounds int, transport func(r int) netcluster.Transport) {
	var wg sync.WaitGroup
	for r := 0; r < m; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr := transport(r)
			mine := make([]byte, payload)
			for i := range mine {
				mine[i] = byte(r + i)
			}
			for round := 0; round < rounds; round++ {
				if _, err := netcluster.Allgather(tr, netcluster.FrameAccum, 8, uint32(round), mine); err != nil {
					panic(fmt.Sprintf("rank %d round %d: %v", r, round, err))
				}
			}
		}(r)
	}
	wg.Wait()
}
