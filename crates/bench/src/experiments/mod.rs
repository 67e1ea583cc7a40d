//! One module per table/figure of the paper's evaluation section.
//!
//! | Module | Reproduces | Paper reference |
//! |---|---|---|
//! | [`table2`] | Retrieval quality, time series vs contour, good singers | Table 2 |
//! | [`table3`] | Retrieval quality vs warping width, poor singers | Table 3 |
//! | [`fig6`] | Tightness of lower bound across 24 datasets | Figure 6 |
//! | [`fig7`] | Tightness vs warping width, five methods, random walk | Figure 7 |
//! | [`fig8`] | Candidates vs warping width, 1000-melody music DB | Figure 8 |
//! | [`fig9`] | Candidates and page accesses, 35,000-melody MIDI DB | Figure 9 |
//! | [`fig10`] | Candidates and page accesses, 50,000 random walks | Figure 10 |
//!
//! [`sweep`] holds the shared candidate/page-access sweep machinery used by
//! figures 8–10, [`extras`] runs the design-choice ablations listed in
//! DESIGN.md (backends, LB second filter, build strategy, transform
//! pruning), [`obs`] re-runs the Figure-9 workload with
//! per-query tracing on, printing the full cascade trajectory (candidates →
//! envelope-LB pruned → `LB_Improved` pruned → early-abandoned → verified)
//! from the library's own observability layer, and [`serve`] drives the TCP
//! query server with a closed-loop multi-connection load generator,
//! reporting p50/p95/p99 latency and throughput versus worker-pool size.
//! [`stream`] queries the server with growing prefixes of each hum,
//! reporting refinement latency and top-k churn versus hum length with a
//! per-prefix bit-identity check against in-process one-shot queries.
//! [`kernels`] microbenchmarks the kernel layer (envelope LB, `LB_Improved`,
//! banded DTW) against naive sequential references, with bit-identity
//! enforced by its shape check.
//! [`ingest`] measures durable bytes per insert and throughput for the
//! segmented store across memtable capacities, with a reload bit-identity
//! check. [`scale`] sweeps the New_PAA feature dimension d ∈ {8, 16, 32} on
//! songbook corpora of up to 10^5 melodies queried with sung hums,
//! reporting build cost, candidate ratio, exact DTW work and latency, with a
//! check that every d returns identical matches.

pub mod extras;
pub mod fig10;
pub mod ingest;
pub mod kernels;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod obs;
pub mod scale;
pub mod serve;
pub mod stream;
pub mod sweep;
pub mod table2;
pub mod table3;
