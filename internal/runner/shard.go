package runner

import "fmt"

// ShardGroup is the fork-join primitive behind the intra-cell sharded
// placement pipeline, which remains only for the benchmark module's
// write-audit workload: it runs fn(0..shards-1) on the bounded pool
// and returns the results indexed by shard, never by completion order.
// cfg.Workers is the pool width; the shard count itself is fixed by
// the simulated machine (one shard per per-core cell), so changing the
// worker width changes wall-clock only, never which shard computes
// what. Each fn call must be a pure function of its shard index —
// private workload slice, private accumulators, private RNGs — exactly
// the Job contract, which is why this is a thin veneer over Run rather
// than a second pool: the goroutine surface of the repo stays confined
// to this package.
//
// name labels shards in Stats; nil gets "shard/<i>".
func ShardGroup[T any](cfg Config, shards int, name func(int) string, fn func(shard int) (T, error)) ([]T, Stats, error) {
	jobs := make([]Job[T], shards)
	for i := range jobs {
		n := fmt.Sprintf("shard/%d", i)
		if name != nil {
			n = name(i)
		}
		shard := i
		jobs[i] = Job[T]{Name: n, Run: func() (T, error) { return fn(shard) }}
	}
	return Run(cfg, jobs)
}
