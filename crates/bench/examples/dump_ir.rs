//! Print the ASaP CSR SpMV kernel as region-structured IR and as the
//! lowered bytecode listing, at both index widths. The quickest way to
//! see what the fusion peepholes did when working on the lowering pass —
//! and that the two widths share one skeleton: the U32 listing has the
//! `SpmvLoop` guard in front of the inner `ForHead`, and otherwise
//! differs from the U64 one only where `LoadCast` / `GatherPrefetch`
//! stand for `Load` / `Load`+`Prefetch`.
//!
//! Usage: `cargo run -p asap-bench --example dump_ir`

use asap_tensor::IndexWidth;

fn main() {
    let spec = asap_sparsifier::KernelSpec::spmv(asap_tensor::ValueKind::F64);
    for width in [IndexWidth::U32, IndexWidth::U64] {
        let ck = asap_core::compile_with_width(
            &spec,
            &asap_tensor::Format::csr(),
            width,
            &asap_core::PrefetchStrategy::asap(45),
        )
        .expect("the paper's reference kernel always compiles");
        println!("// index width {width:?}");
        println!("{}", asap_ir::print_function(&ck.kernel.func));
        let prog = ck.program.as_ref().expect("spmv lowers to bytecode");
        for (i, ins) in prog.instrs.iter().enumerate() {
            println!("{i:3}: {ins:?}");
        }
        println!();
    }
}
