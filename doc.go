// Package repro is a from-scratch Go reproduction of
//
//	Kling & Pietrzyk, "Profitable Scheduling on Multiple Speed-Scalable
//	Processors", SPAA 2013 (arXiv:1209.3868).
//
// The paper's contribution — the online greedy primal-dual algorithm PD
// with a tight α^α competitive ratio for profit-oriented scheduling on
// m speed-scalable processors — lives in internal/core. Everything it
// depends on is built here as well: Chen et al.'s per-interval optimal
// multiprocessor assignment (internal/chen), the atomic-interval
// machinery (internal/interval), the dual certificate (internal/dual),
// the classical single-processor algorithms YDS/OA/AVR/BKP/qOA
// (internal/yds), the Chan-Lam-Li profitable baseline (internal/cll),
// offline reference solvers (internal/opt), the registry-driven
// concurrent replay engine (internal/engine: New(Spec) resolves any
// registered policy, Replay drives one trace, Registry.Race and
// Registry.ReplayAll fan traces over the bounded worker pool in
// internal/pool, and truly-online OA/AVR/qOA sessions expose
// per-arrival state), the experiment harness
// (internal/experiments) that regenerates every table and figure of the
// reproduction, and a serving stack: internal/serve hosts live
// streaming sessions for many tenants behind cmd/schedd's HTTP API,
// and internal/load (cmd/loadgen) replays generated workloads against
// it as live traffic in scaled wall-clock time.
//
// See README.md for a guided tour and CLI usage, DESIGN.md for the
// system inventory and per-experiment index, and EXPERIMENTS.md for how
// to regenerate and read the tables. The benchmarks in bench_test.go
// cover each experiment and the engine/YDS hot paths.
package repro
