//! Microbenchmarks of the substrate: bit arrays, frequency tables, and
//! the simulator's event loop overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dr_core::{BitArray, PartialArray, PeerId, SegmentId};
use dr_protocols::FrequencyTable;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_bits(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let a = BitArray::random(1 << 16, &mut rng);
    let b = BitArray::random(1 << 16, &mut rng);
    c.bench_function("bitarray_first_difference_64k", |bench| {
        bench.iter(|| a.first_difference(&b));
    });
    c.bench_function("bitarray_slice_4k_of_64k", |bench| {
        bench.iter(|| a.slice(1000..1000 + 4096));
    });
    c.bench_function("partial_array_learn_4k", |bench| {
        bench.iter(|| {
            let mut p = PartialArray::new(4096);
            for i in 0..4096 {
                p.learn(i, i % 2 == 0);
            }
            p.unknown_count()
        });
    });
}

fn bench_frequency_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("frequency_table_record");
    for &senders in &[64usize, 256] {
        let mut rng = StdRng::seed_from_u64(2);
        let strings: Vec<BitArray> = (0..senders)
            .map(|_| BitArray::random(64, &mut rng))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(senders), &strings, |b, s| {
            b.iter(|| {
                let mut table = FrequencyTable::new(senders, 8);
                for (i, string) in s.iter().enumerate() {
                    table.record(PeerId(i), SegmentId(i % 8), string.clone());
                }
                table.frequent(SegmentId(0), 2).len()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bits, bench_frequency_table);
criterion_main!(benches);
