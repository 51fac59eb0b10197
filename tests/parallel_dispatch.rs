//! Acceptance test for the parallel dispatch layer: executing the same
//! work through `ParallelDispatcher` with multiple host workers must be
//! *indistinguishable* from the serial reference — byte-identical contigs,
//! identical command counts, and identical cycle/energy totals — because
//! the simulated machine's semantics cannot depend on host scheduling.

use pim_assembler_suite::assembler::dispatch::ParallelDispatcher;
use pim_assembler_suite::assembler::exec::StreamExecutor;
use pim_assembler_suite::assembler::ir::OptLevel;
use pim_assembler_suite::assembler::isa::{AapInstruction, InstructionStream};
use pim_assembler_suite::assembler::template::{CompiledTemplate, Kernel, TemplateKey};
use pim_assembler_suite::assembler::{PimAssembler, PimAssemblerConfig};
use pim_assembler_suite::dram::address::{RowAddr, SubarrayId};
use pim_assembler_suite::dram::bitrow::BitRow;
use pim_assembler_suite::dram::controller::Controller;
use pim_assembler_suite::dram::geometry::DramGeometry;
use pim_assembler_suite::dram::sense_amp::SaMode;
use pim_assembler_suite::genome::reads::ReadSimulator;
use pim_assembler_suite::genome::sequence::DnaSequence;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Full pipeline, serial vs parallel: contigs and every stage's command
/// totals must match exactly for any worker count.
#[test]
fn pipeline_results_are_identical_for_any_worker_count() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let genome = DnaSequence::random(&mut rng, 1500);
    let reads = ReadSimulator::new(70, 22.0).simulate(&genome, &mut rng);

    let config = |workers: usize| {
        PimAssemblerConfig::small_test(15).with_hash_subarrays(8).with_workers(workers)
    };
    let reference = PimAssembler::new(config(1)).assemble(&reads).unwrap();
    assert!(
        !reference.assembly.contigs.is_empty(),
        "reference run must produce contigs for the comparison to mean anything"
    );

    for workers in [2usize, 4, 8] {
        let run = PimAssembler::new(config(workers)).assemble(&reads).unwrap();
        // Byte-identical contigs, in identical order.
        assert_eq!(
            reference.assembly.contigs, run.assembly.contigs,
            "workers={workers}: contigs diverged"
        );
        // Identical aggregate command / cycle / energy totals …
        assert_eq!(
            reference.report.commands, run.report.commands,
            "workers={workers}: totals diverged"
        );
        // … per stage, not just in aggregate.
        let stages = |r: &pim_assembler_suite::assembler::perf::PerfReport| {
            [r.hashmap.commands, r.debruijn.commands, r.traverse.commands]
        };
        assert_eq!(
            stages(&reference.report),
            stages(&run.report),
            "workers={workers}: per-stage totals diverged"
        );
        assert_eq!(
            reference.report.measured_parallelism, run.report.measured_parallelism,
            "workers={workers}: schedule-measured parallelism diverged"
        );
    }
}

/// Direct dispatcher check over ≥ 4 disjoint sub-array partitions:
/// byte-identical array state and bit-identical cycle/energy totals
/// against plain serial execution, for a hand-written XNOR stream and the
/// compiled full adder at O0 and O2, at every worker count.
#[test]
fn four_plus_partitions_execute_byte_identically() {
    const PARTITIONS: usize = 6;
    let g = DramGeometry::paper_assembly();
    let ids: Vec<SubarrayId> =
        (0..PARTITIONS).map(|i| SubarrayId::from_linear_index(&g, i)).collect();

    // Rows 0..4 hold data; row 12 stays all-zero for the adder's constant.
    let seed = |ids: &[SubarrayId]| {
        let mut ctrl = Controller::new(g);
        for (n, &id) in ids.iter().enumerate() {
            for row in 0..4usize {
                let data = BitRow::from_fn(g.cols, |i| (i * 7 + row + n) % 5 < 2);
                ctrl.write_row(id, row, &data).unwrap();
            }
        }
        ctrl
    };

    let x0 = RowAddr(g.compute_row(0));
    let x1 = RowAddr(g.compute_row(1));
    let mut xnor = InstructionStream::new();
    for round in 0..64usize {
        for &id in &ids {
            xnor.extend([
                AapInstruction::Copy {
                    subarray: id,
                    src: RowAddr(round % 4),
                    dst: x0,
                    size: g.cols,
                },
                AapInstruction::Copy {
                    subarray: id,
                    src: RowAddr((round + 1) % 4),
                    dst: x1,
                    size: g.cols,
                },
                AapInstruction::TwoSrc {
                    subarray: id,
                    srcs: [x0, x1],
                    dst: RowAddr(8 + round % 4),
                    mode: SaMode::Xnor,
                    size: g.cols,
                },
            ]);
        }
    }
    // One compiled full adder per sub-array, `rows 0 + 1 + 2 → 13, 14`.
    let adder = |opt: OptLevel| {
        let key = TemplateKey::new(Kernel::FullAdder, g.cols, g.cols).with_opt(opt);
        let adder = CompiledTemplate::compile(key);
        let ctrl = seed(&ids);
        let mut stream = InstructionStream::new();
        for &id in &ids {
            let mut rows = [RowAddr(0); 24];
            let n = adder
                .bind_roles_into(
                    &ctrl,
                    &[RowAddr(0), RowAddr(1), RowAddr(2)],
                    &[RowAddr(13), RowAddr(14)],
                    RowAddr(12),
                    &[],
                    &mut rows,
                )
                .unwrap();
            stream.extend(adder.to_stream(id, &rows[..n]).instructions().iter().copied());
        }
        stream
    };
    let streams =
        [("xnor", xnor), ("adder O0", adder(OptLevel::O0)), ("adder O2", adder(OptLevel::O2))];

    for (name, stream) in &streams {
        assert!(stream.split_by_subarray().len() >= 4, "must exercise at least four partitions");
        let mut serial = seed(&ids);
        StreamExecutor::execute_stream(&mut serial, stream).unwrap();

        for workers in [1usize, 2, 4, 8] {
            let mut parallel = seed(&ids);
            ParallelDispatcher::with_workers(workers).execute(&mut parallel, stream).unwrap();
            let at = format!("{name}, workers={workers}");
            assert_eq!(*serial.stats(), *parallel.stats(), "{at}: command totals");
            assert_eq!(serial.ledger(), parallel.ledger(), "{at}: cycle/energy ledger");
            for &id in &ids {
                for row in 0..g.rows {
                    assert_eq!(
                        serial.peek_row(id, row).unwrap(),
                        parallel.peek_row(id, row).unwrap(),
                        "{at}: row {row} of {id:?} diverged"
                    );
                }
            }
        }
    }
}
