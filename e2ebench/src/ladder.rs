//! The kernel ladder: one AAP command timed at each layer it passes
//! through, from the raw `BitRow` word kernel up to the `Controller`
//! façade, plus a compiled template, the IR compiler and a dispatcher
//! batch of one. The steps between rungs are the per-command bookkeeping
//! each layer adds.

use std::hint::black_box;
use std::time::{Duration, Instant};

use pim_assembler::ir::BackendKind;
use pim_assembler::template::{CompiledTemplate, Kernel, TemplateKey};
use pim_assembler::ParallelDispatcher;
use pim_dram::address::RowAddr;
use pim_dram::bitrow::BitRow;
use pim_dram::controller::Controller;
use pim_dram::geometry::DramGeometry;
use pim_dram::sense_amp::SaMode;
use pim_dram::subarray::Subarray;

use crate::metrics::{median, Values};

/// Timed blocks per rung; the rung reports their median.
const BLOCKS: usize = 7;
/// Target wall time of one block.
const BLOCK_TIME: Duration = Duration::from_millis(15);

/// Median ns per call of `f` over [`BLOCKS`] blocks sized to
/// [`BLOCK_TIME`].
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut n = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        if t.elapsed() >= BLOCK_TIME / 4 || n >= 1 << 30 {
            break;
        }
        n *= 2;
    }
    n *= 4;
    let blocks: Vec<f64> = (0..BLOCKS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..n {
                f();
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&blocks)
}

/// A controller with two operand rows cloned into compute rows `x1`, `x2`.
fn primed_controller() -> (Controller, pim_dram::address::SubarrayId, [RowAddr; 2]) {
    let geometry = DramGeometry::paper_assembly();
    let mut ctrl = Controller::with_profile(geometry, &BackendKind::PimAssembler.profile());
    let id = ctrl.subarray_handle(0, 0, 0, 0).expect("sub-array 0 exists");
    let cols = geometry.cols;
    ctrl.write_row(id, 1, &BitRow::from_fn(cols, |i| i % 2 == 0)).expect("row 1 exists");
    ctrl.write_row(id, 2, &BitRow::from_fn(cols, |i| i % 3 == 0)).expect("row 2 exists");
    let x = [ctrl.compute_row(0), ctrl.compute_row(1)];
    ctrl.aap_copy(id, 1, x[0]).expect("x1 is a compute row");
    ctrl.aap_copy(id, 2, x[1]).expect("x2 is a compute row");
    (ctrl, id, x)
}

/// Every rung, by metric name.
///
/// # Panics
///
/// Panics when a fixed, known-valid command is refused — a change in the
/// program's contract the benchmark must follow.
pub fn measure() -> Values {
    let geometry = DramGeometry::paper_assembly();
    let cols = geometry.cols;
    let mut v = Values::new();

    let (a, b) = (BitRow::from_fn(cols, |i| i % 2 == 0), BitRow::from_fn(cols, |i| i % 3 == 0));
    let mut out = BitRow::zeros(cols);
    v.insert(
        "dram.bitrow_xnor_ns".into(),
        ns_per_call(|| {
            out.xnor_into(black_box(&a), black_box(&b));
            black_box(&out);
        }),
    );

    let (mut ctrl, id, x) = primed_controller();
    let mut sub = Subarray::new(geometry);
    sub.write(x[0], &a).expect("x1 is writable");
    sub.write(x[1], &b).expect("x2 is writable");
    v.insert(
        "dram.subarray_op2_ns".into(),
        ns_per_call(|| sub.op2_apply(SaMode::Xnor, black_box(x), RowAddr(9)).expect("legal op2")),
    );

    let mut ctx = ctrl.detach_context(id).expect("sub-array 0 is attached");
    v.insert(
        "dram.context_op2_ns".into(),
        ns_per_call(|| {
            ctx.aap2_discard(SaMode::Xnor, black_box(x), RowAddr(9)).expect("legal op2")
        }),
    );
    ctrl.reattach_context(ctx).expect("context was detached from this controller");
    v.insert(
        "dram.controller_op2_ns".into(),
        ns_per_call(|| {
            ctrl.aap2_discard(id, SaMode::Xnor, black_box(x), RowAddr(9)).expect("legal op2")
        }),
    );

    let key = TemplateKey::new(Kernel::FullAdder, cols, cols);
    let adder = CompiledTemplate::compile(key);
    for r in 1..=3usize {
        ctrl.write_row(id, r, &BitRow::from_fn(cols, |i| (i + r) % 5 == 0)).expect("row exists");
    }
    ctrl.write_row(id, 4, &BitRow::zeros(cols)).expect("row 4 exists");
    let mut rows = [RowAddr(0); 24];
    let n = adder
        .bind_roles_into(
            &ctrl,
            &[RowAddr(1), RowAddr(2), RowAddr(3)],
            &[RowAddr(10), RowAddr(11)],
            RowAddr(4),
            &[],
            &mut rows,
        )
        .expect("full-adder roles bind");
    let (aap, aap2, aap3) = adder.command_counts();
    let per_call = ns_per_call(|| adder.execute(&mut ctrl, id, &rows[..n]).expect("legal adder"));
    v.insert("template.full_adder_ns".into(), per_call / (aap + aap2 + aap3).max(1) as f64);

    let kernels =
        [Kernel::Xnor, Kernel::FullAdder, Kernel::Popcount, Kernel::MinSelect, Kernel::DpCell];
    let compile_ns = ns_per_call(|| {
        for kernel in kernels {
            black_box(CompiledTemplate::compile(TemplateKey::new(kernel, cols, cols)));
        }
    });
    v.insert("ir.compile_s".into(), compile_ns / 1e9);

    let dispatcher = ParallelDispatcher::with_workers(2);
    v.insert(
        "dispatch.batch1_ns".into(),
        ns_per_call(|| {
            dispatcher
                .run_partitions(&mut ctrl, vec![(id, ())], |_, ()| Ok(()))
                .expect("one partition on an attached sub-array");
        }),
    );
    v
}
