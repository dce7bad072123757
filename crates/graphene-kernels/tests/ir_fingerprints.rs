//! Pinned fingerprints of every shipped kernel: FNV-1a of the printed IR
//! and of the generated CUDA. A schedule refactor that claims identical
//! output must leave every pin unchanged; a pin that moves on purpose is
//! updated here together with the IR diff that explains it.
//!
//! On a mismatch the test lists every moved pin with its new values, so
//! one run shows the whole set.

use graphene_ir::{Arch, Kernel};
use graphene_kernels::catalog::build_named;
use graphene_kernels::gemm::{
    build_batched_gemm, build_gemm, build_gemm_double_buffered, build_gemm_no_ldmatrix,
    build_gemm_parametric_m, build_gemm_partial_m, Epilogue, GemmConfig,
};
use std::collections::HashMap;

/// 64-bit FNV-1a.
fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// `(label, arch, IR fingerprint, CUDA fingerprint)`.
type Pin = (&'static str, Arch, u64, u64);

const PINS: &[Pin] = &[
    ("catalog/gemm", Arch::Sm86, 0x74ce071b6dc75b09, 0xc38a749822fe23dd),
    ("catalog/gemm-db", Arch::Sm86, 0x5605c512ae5b65b9, 0x34c9e293f2b8ceaa),
    ("catalog/mlp", Arch::Sm86, 0x88e23e5fc497d9e7, 0x6bc43f33cf80c60b),
    ("catalog/lstm", Arch::Sm86, 0xa4205b4e5fcea0ee, 0x2f5fc45fce1e8e82),
    ("catalog/layernorm", Arch::Sm86, 0x41d41054fa4f8c84, 0x5b1acc0b4e62076e),
    ("catalog/softmax", Arch::Sm86, 0xe92b825aa881369a, 0x399d07659f17e395),
    ("catalog/fmha", Arch::Sm86, 0xee3574e2de0215f6, 0xd1a0c47be23c3521),
    ("catalog/gemm", Arch::Sm70, 0x37b4291fc8b8cee7, 0x2e353ee07c04794e),
    ("catalog/mlp", Arch::Sm70, 0x5edab27c1dfcfc38, 0x649c21816dec2d35),
    ("catalog/lstm", Arch::Sm70, 0xd519d0fd135d87b9, 0x8536d920cc70b3af),
    ("catalog/layernorm", Arch::Sm70, 0x41d41054fa4f8c84, 0xf1fd9a8cc460008f),
    ("catalog/softmax", Arch::Sm70, 0xe92b825aa881369a, 0x042fb179ef4f2b2e),
    ("gemm/gemm", Arch::Sm86, 0xc9018f8db308a9de, 0xa71dbdbbef689c99),
    ("gemm/bias", Arch::Sm86, 0xc0ae6ad72f7af01e, 0x9de05a98b3875ca9),
    ("gemm/relu", Arch::Sm86, 0xb66f4e53820a2e9e, 0x4851e35bd21bab67),
    ("gemm/bias+relu", Arch::Sm86, 0x68873b8a8aabca7f, 0x979f7d2a24c8a96a),
    ("gemm/bias+gelu", Arch::Sm86, 0xcdda1d797b303aca, 0xbee7307d12d652d7),
    ("gemm/gemm", Arch::Sm70, 0x26696c6d72a118f0, 0x7cc1a7b283b010f1),
    ("gemm/bias", Arch::Sm70, 0x43d3e6805db5e4a1, 0x7dd155dcadc18c5d),
    ("gemm/relu", Arch::Sm70, 0xde9274601694dcf8, 0x53a92f85862a9687),
    ("gemm/bias+relu", Arch::Sm70, 0x3ff5fa212a8d1ac3, 0xc321e52fceeb0778),
    ("gemm/bias+gelu", Arch::Sm70, 0x35881f046e131990, 0xdb35cc5a0a7c13eb),
    ("gemm_double_buffered", Arch::Sm86, 0x6120c7e8b1f8124c, 0x195c6423761f8156),
    ("gemm_no_ldmatrix", Arch::Sm86, 0x3a603fc9777d7d73, 0xfe436ffd84f76eed),
    ("gemm_partial_m", Arch::Sm86, 0x8b02f34f8f760597, 0xafd774396451aabb),
    ("gemm_parametric_m", Arch::Sm86, 0xd75b13d9f5e3ae36, 0x05f0cd98956c125b),
    ("batched_gemm_x3", Arch::Sm86, 0xcb13ba861783ad00, 0xd07904183908d756),
];

fn kernel_for(label: &str, arch: Arch) -> Kernel {
    let small = GemmConfig::small(64, 64, 64);
    if let Some(name) = label.strip_prefix("catalog/") {
        return build_named(name, arch, &HashMap::new()).expect("catalog default").kernel;
    }
    if let Some(epi) = label.strip_prefix("gemm/") {
        let epilogue = [
            Epilogue::None,
            Epilogue::Bias,
            Epilogue::Relu,
            Epilogue::BiasRelu,
            Epilogue::BiasGelu,
        ]
        .into_iter()
        .find(|e| e.label() == epi)
        .expect("epilogue label");
        return build_gemm(arch, &small, epilogue);
    }
    match label {
        "gemm_double_buffered" => build_gemm_double_buffered(&small, Epilogue::None),
        "gemm_no_ldmatrix" => build_gemm_no_ldmatrix(&small, Epilogue::None),
        "gemm_partial_m" => build_gemm_partial_m(&GemmConfig::small(48, 64, 64), Epilogue::None),
        "gemm_parametric_m" => build_gemm_parametric_m(&small, Epilogue::None),
        "batched_gemm_x3" => build_batched_gemm(Arch::Sm86, &small, 3),
        other => panic!("unknown pin `{other}`"),
    }
}

/// Every pinned kernel, in table order.
fn pinned_kernels() -> Vec<(String, Arch)> {
    let mut out = Vec::new();
    for name in ["gemm", "gemm-db", "mlp", "lstm", "layernorm", "softmax", "fmha"] {
        out.push((format!("catalog/{name}"), Arch::Sm86));
    }
    for name in ["gemm", "mlp", "lstm", "layernorm", "softmax"] {
        out.push((format!("catalog/{name}"), Arch::Sm70));
    }
    for arch in [Arch::Sm86, Arch::Sm70] {
        for epi in ["gemm", "bias", "relu", "bias+relu", "bias+gelu"] {
            out.push((format!("gemm/{epi}"), arch));
        }
    }
    for label in [
        "gemm_double_buffered",
        "gemm_no_ldmatrix",
        "gemm_partial_m",
        "gemm_parametric_m",
        "batched_gemm_x3",
    ] {
        out.push((label.to_string(), Arch::Sm86));
    }
    out
}

#[test]
fn every_shipped_kernel_matches_its_pinned_fingerprint() {
    let mut moved = Vec::new();
    let mut table = String::new();
    let kernels = pinned_kernels();
    for (label, arch) in &kernels {
        let kernel = kernel_for(label, *arch);
        let ir = fnv1a(&kernel.to_string());
        let cuda = fnv1a(&graphene_codegen::generate(&kernel, *arch).expect("codegen"));
        let line = format!("    (\"{label}\", Arch::{arch:?}, {ir:#018x}, {cuda:#018x}),\n");
        table.push_str(&line);
        let pin = PINS.iter().find(|p| p.0 == label && p.1 == *arch);
        if pin.map(|p| (p.2, p.3)) != Some((ir, cuda)) {
            moved.push(line);
        }
    }
    assert_eq!(PINS.len(), kernels.len(), "every pin names a built kernel:\n{table}");
    assert!(moved.is_empty(), "{} pin(s) moved:\n{}", moved.len(), moved.concat());
}
