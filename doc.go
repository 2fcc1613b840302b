// Package repro is a from-scratch Go reproduction of "Information Spreading
// in Dynamic Graphs" (A. Clementi, R. Silvestri, L. Trevisan; PODC 2012,
// arXiv:1111.0583): the (M, α, β)-stationarity framework for bounding the
// flooding time of Markovian evolving graphs, together with every model the
// paper instantiates it on — edge-MEGs, node-MEGs, the random waypoint and
// random walk mobility models, and random paths over graphs.
//
// # Dynamics contract
//
// Every model implements one interface, dyngraph.Dynamic: N, Step,
// AppendEdges (the current snapshot as a flat edge batch, used only to
// seed a consumer) and AppendDeltas (the edges born and died in the most
// recent Step), with dyngraph.MoveReporter optional for models whose
// churn follows node motion. The paper's object is a Markov chain over
// snapshots E_t, and in its sparse regime only O(n) of the Θ(n) edges
// flip per step, so the models emit exactly that churn: the edge-MEG
// simulators from their own step logic, the mobility models from a
// two-pass scan of the moved nodes' cell neighborhoods (O(moved × local
// density)), node-MEGs from their state buckets, Static with no churn at
// all, and trace Replay by diffing recorded snapshots.
//
// No consumer asks a model for neighbors. Every engine owns one
// dyngraph.Adjacency — a CSR-arena neighbor store — and keeps it current
// through a dyngraph.Tracker: seed from AppendEdges, then per step Step,
// drain AppendDeltas, Apply, and count the churn. flood.Run (an
// active-set engine that scans only informed nodes that may still reach
// someone), Parsimonious, Async, RandomizedPush, Pull, PushPull,
// dynwalk.Walker, core.Spread and balance all read it, at O(churn) per
// step for the dynamics.
//
// List order in the Adjacency is deterministic but arbitrary (removals
// swap with the last entry). Flooding and parsimonious flooding treat
// neighborhoods as sets and async draws its contacts order-free, so they
// reproduce frozen reference engines byte for byte. Pull, push–pull,
// k-push and the random walk draw a uniform index into a list that holds
// each current neighbor once, which is a uniform neighbor whatever the
// order: the law is the paper's, and only which neighbor a given
// fixed-seed draw names depends on the store. Exact-law χ² tests on the
// n = 4 edge-MEG (internal/flood/law_test.go) gate those engines.
//
// The §5 reduction of randomized push to flooding on a graph subsampled
// afresh each step is a per-step sampler over the same store:
// dyngraph.Adjacency.Sample draws each informed node's min(k, deg)
// distinct uniform neighbors, the push half RandomizedPush and PushPull
// share.
//
// The spreading core is allocation-free once warm: informed sets are
// word-packed bitsets (internal/bitset) and all per-run working state —
// the tracked adjacency included — lives in a reusable flood.Scratch
// threaded through flood.Opts; internal/study gives each worker one for
// all its trials.
//
// Construction is spec-driven on both axes of an experiment, through two
// registries sharing the generic internal/spec machinery (name + typed
// parameters, CLI-string and JSON round-trips):
//
//   - internal/model builds dynamic graphs: model.Build(spec, seed) with
//     specs like "edgemeg:n=512,p=0.004,q=0.096". Model packages
//     self-register from init functions; importing repro/internal/model/all
//     links every built-in model into a binary.
//   - internal/protocol builds spreading protocols: protocol.Build(spec,
//     seed) with specs like "flood", "push:k=2", "pull", "pushpull:k=1",
//     "parsimonious:active=8". A built Protocol holds its parameters and
//     (for randomized protocols) a private RNG stream, and runs any model
//     via Run(d, source, opts), returning a flood.Result. All protocol
//     engines live in internal/flood and share one bookkeeping core, so a
//     Result field added once is tracked by every protocol.
//
// Registering a new model or protocol is a one-file change in its own
// package — no CLI, example, or experiment needs edits.
//
// internal/study is the experiment engine over both registries: a
// study.Study crosses one model spec with one protocol spec and runs
// Trials independent executions on a bounded worker pool, deriving
// per-trial model and protocol RNG streams from a master seed via
// rng.Seed — equal Studies yield identical Cells (per-trial Results plus a
// stats.Summary) for any Workers value. study.Grid sweeps whole
// model×protocol grids, and Cell.WriteJSONL emits per-trial JSON lines for
// downstream tooling.
//
// The v4 layer on top of the study engine is the declarative sweep
// runner, the production path for the paper's parameter-sweep campaigns:
//
//   - study.Sweep declares a whole grid — model specs × protocol specs ×
//     a trial count under one master seed — parseable from a JSON file
//     (study.ParseSweepFile) in which specs are CLI strings or spec
//     objects. Cell results are a pure function of the Sweep value.
//   - study.RunSweep executes the grid, skipping cells already present in
//     a loaded checkpoint and streaming each newly completed cell's
//     study.CellRecord — key (model, protocol, trials, seed) plus
//     per-trial times/half-times/informed counts — to a sink before the
//     next cell starts. study.ReadCheckpoint / study.LoadCheckpoint parse
//     the JSONL back, dropping a trailing line truncated by a kill, so an
//     interrupted sweep resumes losing at most the cell in flight.
//   - study.Report aggregates records into canonically sorted rows
//     (median/mean/p95 flooding time, median half time, mean informed
//     fraction); study.WriteCSV and study.WriteMarkdown render them.
//     Resumed and uninterrupted runs report byte-identically for any
//     Workers values.
//
// cmd/sweep drives all of this from the command line; the E18 experiment
// and examples/p2pchurn run their grids through the same path.
//
// The v7 layer distributes those campaigns across machines.
// internal/campaign turns the checkpoint's existing contract — cells
// keyed by (model, protocol, trials, seed), later duplicates win, results
// a pure function of the sweep definition — into a lease-based work
// queue: campaign.Manager holds submitted sweeps and leases cells out
// with expiring random tokens; campaign.NewServer exposes it over
// HTTP/JSON (submit, lease, complete, release, live progress and
// CSV/markdown report endpoints); campaign.Client and campaign.Work are
// the worker side, with transient-error retry and graceful shutdown
// (finish and post the in-flight cell, or release an unstarted lease).
// Worker death is handled purely by lease expiry and duplicate
// completions are accepted as harmless — no fencing, heartbeats, or
// consensus — so a farm of any size, including one suffering mid-cell
// worker kills, reports byte-identically to the offline single-process
// run. cmd/sweepd is the server binary; cmd/sweep -server is the
// submitter and worker. Completed records carry wall_ms (diagnostic
// only, never reported) which feeds adaptive lease TTLs and progress
// throughput. study.RunSweepOpts adds the same graceful-stop and
// progress hooks to local runs, and study.Sweep.CheckRecord gates every
// record a campaign accepts. See docs/SWEEPD.md for the protocol.
//
// The v8 layer makes performance a continuously observed property of all
// of this rather than a benchmark-day artifact. internal/telemetry is an
// FTDC-style metrics-capture subsystem: a telemetry.Collector registers
// gauge and counter sources (sweep cells/trials/steps done, scratch-pool
// footprint via the Bytes accounting on flood.Scratch and the dyngraph
// stores, farm lease/completion churn, runtime heap/GC stats) and samples
// them once per second — plus once per completed cell — into a
// delta-encoded, size-capped, ring-buffered capture file
// (*.ftdc.jsonl) whose reader tolerates kill truncation exactly like the
// sweep checkpoint. The hot paths stay allocation-free: engines and sweep
// loops only bump atomic counters; reading, encoding, and fsync batching
// happen on the collector's goroutine. study.SweepOpts.Telemetry wires a
// local sweep, campaign.WorkerOpts.Telemetry a farm worker, and
// campaign.Options.Telemetry the server (which additionally serves live
// snapshots on GET /metrics and per-campaign worker heartbeats and
// counters on GET /campaigns/{id}/metrics, and supports DELETE
// /campaigns/{id} for finished-state GC). telemetry.ReadCaptureFile and
// telemetry.Summarize decode and aggregate captures — `sweep
// -telemetry-report` renders the table. See docs/TELEMETRY.md.
//
// The v9 layer scales the sparse stationary regime to n = 10⁶ on one
// box. The edgemeg simulator keeps no alive-pair position map and no
// per-step exclude map: deaths leave the alive slice by position, and
// births probe one membership set of the alive ranks — one bit per pair
// where that is no larger than a hash table at the stationary alive
// count, else an open-addressing table of ranks (power-of-two slots,
// linear probing, backward-shift deletion); dyngraph.Adjacency
// became a CSR arena — {off, len, cap} segment headers over one shared
// int32 buffer with move-to-end growth and slack-preserving compaction,
// layout-preserved across same-n Resets; the flood frontier sets became
// two-level bitsets (bitset.TwoLevel: a summary word per 64 leaf words)
// so the delta engine's per-step sweep is O(active words) rather than
// O(n/64); and the spec-versioned stream parameter on edgemeg/edgemeg4
// selects the sampling stream — stream=v1 (default) replays every pre-v9
// RNG stream byte-for-byte, stream=v2 draws O(churn) numbers per step
// via geometric skipping over the Bernoulli sweeps and, for the
// generalized chain, per-state-class cohorts with conditional-alias
// destinations. Net: zero warm allocations and a tracked resident
// footprint (Bytes() accounting) far under the 4 GB budget at n = 10⁶,
// both pinned by internal/flood/million_test.go, and per-step churn
// surfaced as born_per_step/died_per_step telemetry gauges. The
// flood-meg-1m workload of benchmark/ measures the regime end to end and
// layer by layer (benchmark/README.md, "Per-layer metrics" and
// "Baseline").
//
// The library lives under internal/ (README.md's package table is the
// module map); cmd/ holds the CLIs, examples/ runnable scenarios, and
// bench_test.go one benchmark per experiment of the bench registry
// (`benchtab -list`). benchmark/ is the performance harness.
// docs/PAPER_MAP.md maps the paper's sections and theorems to packages
// and experiments.
package repro
