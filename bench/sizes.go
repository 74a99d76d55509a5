package main

// sizes fixes the shape of every workload. fullSizes is the benchmark;
// tinySizes keeps the same shapes small enough for the smoke test.
type sizes struct {
	setupReps int // set-ups per run; setup_s is their median

	labelPool     int // pairs in the labelling workloads' one pool
	labelSessions int // live sessions, split evenly over the connections
	labelBudget   int // label budget of each session
	labelBatch    int // propose ?n=
	estimateEvery int // label-memory: round trips between estimate reads
	scrapeEvery   int // label-memory: round trips between /metrics + /v1/stats

	churnPools    int     // pools the churn workload cycles through
	churnPairs    int     // pairs per churn pool
	churnBudget   int     // label budget of each churn session
	churnBatch    int     // propose ?n= in churn sessions
	churnCompact  string  // -compact-every of the churn server
	offlineScale  float64 // erbench pool scale (1.0 = the paper's sizes)
	offlineRuns   int     // OASIS runs per FinalError call
	offlineBudget [3]int  // label budgets per dataset (Figure 2)
}

const connections = 2

// offlineDatasets are the paper datasets of the offline workload, in the
// order of sizes.offlineBudget.
var offlineDatasets = [3]string{"Amazon-GoogleProducts", "cora", "Abt-Buy"}

var fullSizes = sizes{
	setupReps:     3,
	labelPool:     200_000,
	labelSessions: 8,
	labelBudget:   5000,
	labelBatch:    16,
	estimateEvery: 8,
	scrapeEvery:   1000,
	churnPools:    4,
	churnPairs:    1_000_000,
	churnBudget:   256,
	churnBatch:    64,
	churnCompact:  "2s",
	offlineScale:  1,
	offlineRuns:   2,
	offlineBudget: [3]int{40_000, 20_000, 20_000},
}

var tinySizes = sizes{
	setupReps:     1,
	labelPool:     4000,
	labelSessions: 4,
	labelBudget:   100,
	labelBatch:    8,
	estimateEvery: 8,
	scrapeEvery:   50,
	churnPools:    4,
	churnPairs:    5000,
	churnBudget:   32,
	churnBatch:    8,
	churnCompact:  "200ms",
	offlineScale:  0.02,
	offlineRuns:   2,
	offlineBudget: [3]int{300, 300, 300},
}
