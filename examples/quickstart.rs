//! Quickstart: compile SpMV over a CSR matrix with ASaP prefetching,
//! run it, and peek at the generated IR.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use asap::core::{compile, run_spmv_f64, PrefetchStrategy};
use asap::ir::print_function;
use asap::matrices::gen;
use asap::sparsifier::KernelSpec;
use asap::tensor::{Format, SparseTensor, ValueKind};

fn main() {
    // 1. A small banded matrix in coordinate form.
    let tri = gen::banded(16, 2, 7);
    println!(
        "matrix: {}x{}, {} non-zeros",
        tri.nrows,
        tri.ncols,
        tri.nnz()
    );

    // 2. Store it as CSR (pos/crd/values buffers).
    let b = SparseTensor::from_coo(&tri.to_coo(), Format::csr());
    println!("CSR Bj_pos[0..5] = {:?}", &b.level(1).pos.to_vec()[..5]);
    println!("CSR Bj_crd[0..5] = {:?}", &b.level(1).crd.to_vec()[..5]);

    // 3. Compile SpMV three ways: baseline, ASaP, Ainsworth&Jones.
    let spec = KernelSpec::spmv(ValueKind::F64);
    let baseline = compile(&spec, b.format(), &PrefetchStrategy::none()).expect("compiles");
    let asap = compile(&spec, b.format(), &PrefetchStrategy::asap(45)).expect("compiles");
    let aj = compile(&spec, b.format(), &PrefetchStrategy::aj(45)).expect("compiles");
    println!(
        "prefetch ops: baseline={}, asap={}, aj={}",
        baseline.prefetch_ops, asap.prefetch_ops, aj.prefetch_ops
    );

    // 4. Run and verify against the dense reference.
    let x: Vec<f64> = (0..16).map(|i| 1.0 + i as f64 * 0.5).collect();
    let y = run_spmv_f64(&asap, &b, &x).expect("kernel runs");
    let yref = tri.dense_spmv(&x);
    let max_err = y
        .iter()
        .zip(&yref)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("max |asap - reference| = {max_err:.2e}");
    assert!(max_err < 1e-9);

    // 5. The generated IR (the paper's Figure 3b plus the Figure 5
    //    prefetch block, after LICM hoisted the bound chain).
    println!(
        "\n--- ASaP SpMV IR ---\n{}",
        print_function(&asap.kernel.func)
    );
}
