//! S1 — matching-table construction scaling: the blocked engine vs
//! the nested-loop oracle, and the §4.2 algebra pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use eid_bench::scaling_workload;
use eid_core::algebra_pipeline;
use eid_core::matcher::{EntityMatcher, JoinAlgorithm, MatchConfig};

fn bench_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching");
    group.sample_size(10);
    for n in [100usize, 400, 1600] {
        let w = scaling_workload(n, 21);
        let mut config = MatchConfig::new(w.extended_key.clone(), w.ilfds.clone());
        config.collect_negative = false;

        let blocked_cfg = config.clone();
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |b, _| {
            b.iter(|| {
                EntityMatcher::new(w.r.clone(), w.s.clone(), blocked_cfg.clone())
                    .unwrap()
                    .run()
                    .unwrap()
            })
        });

        // Nested loop is quadratic; cap it to keep the suite fast.
        if n <= 400 {
            let mut nl_cfg = config.clone();
            nl_cfg.join = JoinAlgorithm::NestedLoop;
            group.bench_with_input(BenchmarkId::new("nested_loop", n), &n, |b, _| {
                b.iter(|| {
                    EntityMatcher::new(w.r.clone(), w.s.clone(), nl_cfg.clone())
                        .unwrap()
                        .run()
                        .unwrap()
                })
            });
        }

        group.bench_with_input(BenchmarkId::new("algebra_pipeline", n), &n, |b, _| {
            b.iter(|| {
                algebra_pipeline::run(black_box(&w.r), black_box(&w.s), &w.extended_key, &w.ilfds)
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_matching);
criterion_main!(benches);
