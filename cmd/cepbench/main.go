// Command cepbench regenerates the paper's evaluation figures (4–19) as
// tables on the synthetic stock workload.
//
// Usage:
//
//	cepbench -fig 4           # one figure (and its sibling, e.g. 4 prints 5 too)
//	cepbench -fig all         # every figure
//	cepbench -fig ext         # the extension algorithms beside the paper's
//	cepbench -events 50000 -persize 4 -fig 10
//
// Figures map to the paper as follows: 4/5 per-category throughput/memory;
// 6–15 throughput/memory by pattern size per category; 16 cost-model
// validation; 17 large-pattern plan quality and planning time; 18
// throughput/latency trade-off; 19 selection strategies.
//
// The serving path (Session, SubmitBatch → sink) is measured by the
// benchmark spine in bench/, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/event"
	"repro/internal/harness"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure number (4-19), 'all' or 'ext'")
		symbols  = flag.Int("symbols", 32, "stock symbols in the universe")
		events   = flag.Int("events", 8000, "events in the generated stream")
		windowMS = flag.Int64("window", 4000, "pattern window in milliseconds")
		perSize  = flag.Int("persize", 2, "patterns per size per category")
		seed     = flag.Int64("seed", 1, "master RNG seed")
		maxSize  = flag.Int("maxsize", 7, "largest pattern size for execution figures")
		dpldCap  = flag.Int("dpld-cap", 18, "largest pattern size planned with DP-LD in Fig 17")
		dpbCap   = flag.Int("dpb-cap", 14, "largest pattern size planned with DP-B in Fig 17")
	)
	flag.Parse()

	figures := harness.AllFigures()
	switch *fig {
	case "all", "ext":
	default:
		n, err := strconv.Atoi(*fig)
		if err != nil || n < 4 || n > 19 {
			fmt.Fprintf(os.Stderr, "cepbench: invalid -fig %q (4-19, 'all' or 'ext')\n", *fig)
			flag.Usage()
			os.Exit(2)
		}
		figures = []int{n}
	}

	sizes := make([]int, 0, *maxSize-2)
	for s := 3; s <= *maxSize; s++ {
		sizes = append(sizes, s)
	}
	cfg := harness.Config{
		Symbols:     *symbols,
		Events:      *events,
		Window:      event.Time(*windowMS),
		Sizes:       sizes,
		PerSize:     *perSize,
		Seed:        *seed,
		MaxDPLDSize: *dpldCap,
		MaxDPBSize:  *dpbCap,
	}
	runner := harness.NewRunner(cfg)
	fmt.Printf("workload: %d events over %d symbols, window %dms, sizes %v, %d patterns/size\n\n",
		cfg.Events, cfg.Symbols, *windowMS, sizes, cfg.PerSize)

	if *fig == "ext" {
		start := time.Now()
		tables, err := runner.FigExtensions()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cepbench: extensions: %v\n", err)
			os.Exit(1)
		}
		for i := range tables {
			tables[i].Fprint(os.Stdout)
		}
		fmt.Printf("(extension tables computed in %v)\n", time.Since(start).Round(time.Millisecond))
		return
	}
	for _, n := range figures {
		start := time.Now()
		tables, err := runner.Figure(n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cepbench: figure %d: %v\n", n, err)
			os.Exit(1)
		}
		for i := range tables {
			tables[i].Fprint(os.Stdout)
		}
		fmt.Printf("(figure %d computed in %v)\n\n", n, time.Since(start).Round(time.Millisecond))
	}
}
