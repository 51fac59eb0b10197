//! Criterion benchmarks of the three assembly stages through the
//! functional PIM pipeline, one per procedure of Fig. 5.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pim_assembler::config::PimAssemblerConfig;
use pim_assembler::graph_stage::GraphStage;
use pim_assembler::hashmap_stage::PimHashTable;
use pim_assembler::mapping::KmerMapper;
use pim_assembler::pipeline::PimAssembler;
use pim_assembler::traverse_stage::TraverseStage;
use pim_dram::controller::Controller;
use pim_dram::geometry::DramGeometry;
use pim_dram::schedule::{schedule, CommandQueue};
use pim_dram::timing::TimingParams;
use pim_genome::euler::EulerAlgorithm;
use pim_genome::kmer::KmerIter;
use pim_genome::reads::ReadSimulator;
use pim_genome::sequence::DnaSequence;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn dataset(len: usize) -> (DnaSequence, Vec<pim_genome::Read>) {
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let genome = DnaSequence::random(&mut rng, len);
    let reads = ReadSimulator::new(80, 12.0).simulate(&genome, &mut rng);
    (genome, reads)
}

fn bench_hashmap_stage(c: &mut Criterion) {
    let (genome, _) = dataset(2000);
    let g = DramGeometry::paper_assembly();
    c.bench_function("hashmap_stage_2kb_genome_k15", |b| {
        b.iter(|| {
            let mut ctrl = Controller::new(g);
            let mut table = PimHashTable::new(KmerMapper::new(&g, 8, 8));
            for kmer in KmerIter::new(&genome, 15).unwrap() {
                table.insert(&mut ctrl, kmer).unwrap();
            }
            black_box(table.stats().distinct)
        })
    });
}

fn bench_graph_stage(c: &mut Criterion) {
    let (genome, _) = dataset(2000);
    let g = DramGeometry::paper_assembly();
    let mut ctrl = Controller::new(g);
    let mut table = PimHashTable::new(KmerMapper::new(&g, 8, 8));
    for kmer in KmerIter::new(&genome, 15).unwrap() {
        table.insert(&mut ctrl, kmer).unwrap();
    }
    let region = ctrl.subarray_handle(0, 8, 0, 0).unwrap();
    c.bench_function("graph_stage_2kb_genome_k15", |b| {
        b.iter(|| black_box(GraphStage::build(&mut ctrl, &table, 1, region, 2).unwrap().2))
    });
}

fn bench_traverse_stage(c: &mut Criterion) {
    let (genome, _) = dataset(2000);
    let g = DramGeometry::paper_assembly();
    let mut ctrl = Controller::new(g);
    let mut table = PimHashTable::new(KmerMapper::new(&g, 8, 8));
    for kmer in KmerIter::new(&genome, 15).unwrap() {
        table.insert(&mut ctrl, kmer).unwrap();
    }
    let region = ctrl.subarray_handle(0, 8, 0, 0).unwrap();
    let (graph, _, _) = GraphStage::build(&mut ctrl, &table, 1, region, 2).unwrap();
    let work = ctrl.subarray_handle(0, 9, 0, 0).unwrap();
    c.bench_function("traverse_stage_2kb_genome_k15", |b| {
        b.iter(|| {
            black_box(
                TraverseStage::run(&mut ctrl, &graph, work, EulerAlgorithm::Hierholzer).unwrap().1,
            )
        })
    });
}

fn bench_full_pipeline(c: &mut Criterion) {
    let (_, reads) = dataset(1500);
    c.bench_function("full_pipeline_1500bp_k15", |b| {
        b.iter(|| {
            let mut asm = PimAssembler::new(PimAssemblerConfig::small_test(15));
            black_box(asm.assemble(&reads).unwrap().assembly.stats)
        })
    });
}

/// The report's command-bus schedule at the shape of a 50 kbp batch run:
/// 65 sub-array queues of ~400k commands each under a DDR4 bus that
/// issues one command every three clocks.
fn bench_report_schedule(c: &mut Criterion) {
    let queues: Vec<CommandQueue> = (0..65u64)
        .map(|i| CommandQueue {
            commands: 400_000 + 997 * i,
            latency_ns: 40.0 + (i % 7) as f64 * 1.5,
        })
        .collect();
    let issue_ns = 3.0 * TimingParams::ddr4_2133().t_ck_ns;
    c.bench_function("report_schedule_65_queues_x_400k_cmds", |b| {
        b.iter(|| black_box(schedule(black_box(&queues), issue_ns).effective_parallelism))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_hashmap_stage, bench_graph_stage, bench_traverse_stage, bench_full_pipeline,
        bench_report_schedule
}
criterion_main!(benches);
