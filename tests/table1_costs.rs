//! Pinned Eq (6)/(7)/(9) values of the calibrated DAC-2015 cost model.
//!
//! `interface`'s unit tests check that the model lands within 2% of each
//! saving the paper's Table 1 reports; this suite pins the exact values,
//! so a change to a circuit constant or a cost formula cannot move one
//! unnoticed. The rows are Table 1's six benchmarks: the digital
//! `I × H × O` network behind 8-bit AD/DAs, and the pruned MEI topology
//! `I'·B_in × H' × O'·B_out`. Each quantity folds the `to_bits()` of its
//! six values, in row order, into one FNV-1a hash, as in
//! `tests/noisy_bits.rs`; `K_max` is pinned as exact integers.

use interface::{AddaTopology, CostModel, MeiTopology};

/// One Table 1 row: name, digital `(I, H, O)`, pruned MEI
/// `(I', B_in, H', O', B_out)`.
type Row = (
    &'static str,
    (usize, usize, usize),
    (usize, usize, usize, usize, usize),
);

const TABLE1: [Row; 6] = [
    ("fft", (1, 8, 2), (1, 7, 16, 2, 8)),
    ("inversek2j", (2, 8, 2), (2, 8, 32, 2, 8)),
    ("jmeint", (18, 48, 2), (18, 6, 64, 2, 1)),
    ("jpeg", (64, 16, 64), (64, 6, 64, 64, 7)),
    ("kmeans", (6, 20, 1), (6, 6, 32, 1, 8)),
    ("sobel", (9, 8, 1), (9, 6, 16, 1, 1)),
];

fn fnv1a(values: &[f64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for byte in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

type Quantity = fn(&CostModel, &AddaTopology, &MeiTopology) -> f64;

#[test]
fn table1_cost_model_bits_are_pinned() {
    let model = CostModel::dac2015();
    let rows: Vec<(AddaTopology, MeiTopology)> = TABLE1
        .iter()
        .map(|&(_, (i, h, o), (ig, ib, hm, og, ob))| {
            (
                AddaTopology::new(i, h, o, 8),
                MeiTopology::new(ig, ib, hm, og, ob),
            )
        })
        .collect();
    let quantities: [(&str, Quantity); 6] = [
        ("area_adda", |m, a, _| m.area_adda(a)),
        ("power_adda", |m, a, _| m.power_adda(a)),
        ("area_mei", |m, _, t| m.area_mei(t)),
        ("power_mei", |m, _, t| m.power_mei(t)),
        ("area_saving", CostModel::area_saving),
        ("power_saving", CostModel::power_saving),
    ];
    let hashes: Vec<(&str, u64)> = quantities
        .iter()
        .map(|&(name, quantity)| {
            let values: Vec<f64> = rows.iter().map(|(a, t)| quantity(&model, a, t)).collect();
            (name, fnv1a(&values))
        })
        .collect();
    assert_eq!(
        hashes,
        [
            ("area_adda", 0x32c0_4b5b_ab73_0068),
            ("power_adda", 0x4df9_f81d_a54d_0614),
            ("area_mei", 0x2f62_1509_e7ef_bf0c),
            ("power_mei", 0x029f_1cb8_62bf_ee7e),
            ("area_saving", 0xf76b_5389_331b_8df1),
            ("power_saving", 0xa279_80b8_8ac9_7a98),
        ]
    );
    let k_max: Vec<usize> = rows.iter().map(|(a, t)| model.k_max(a, t)).collect();
    assert_eq!(k_max, [3, 2, 2, 4, 3, 7], "K_max per row");
}
