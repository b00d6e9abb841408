//! Per-cell EX that `EXPERIMENTS.md` reports for Tables 5 and 6, which
//! the eval workloads reproduce exactly at [`TABLE_SEED`].

/// The benchmark seed the tables were produced with.
pub const TABLE_SEED: u64 = 7;

/// Table 5 EX in percent, in grid order: v1, v2, v3; within a model the
/// train sizes 0, 100, 200, 300; within a size ValueNet, T5-Picard,
/// T5-Picard_Keys.
pub const TABLE5: [f64; 36] = [
    2.0, 8.0, 7.0, 16.0, 22.0, 27.0, 18.0, 29.0, 33.0, 20.0, 29.0, 38.0, //
    3.0, 7.0, 7.0, 14.0, 16.0, 29.0, 18.0, 29.0, 33.0, 20.0, 32.0, 38.0, //
    3.0, 6.0, 8.0, 21.0, 6.0, 25.0, 23.0, 27.0, 36.0, 25.0, 29.0, 41.0,
];

/// Table 6 EX in percent as (mean, sd over folds), in grid order: v1, v2,
/// v3; within a model GPT-3.5 at 0, 10, 20, 30 shots, then LLaMA2 at 0,
/// 2, 4, 8 shots. The tables print no sd for zero shots.
pub const TABLE6: [(f64, f64); 24] = [
    (25.00, 0.0),
    (42.00, 1.4),
    (36.33, 1.7),
    (35.00, 2.2),
    (5.25, 0.0),
    (10.00, 2.4),
    (11.25, 2.5),
    (16.75, 0.8),
    (25.67, 0.0),
    (33.67, 1.3),
    (36.00, 2.2),
    (35.00, 3.6),
    (3.75, 0.0),
    (8.50, 2.9),
    (8.50, 3.2),
    (14.25, 1.3),
    (20.00, 0.0),
    (41.33, 2.9),
    (42.00, 3.6),
    (37.67, 1.9),
    (6.00, 0.0),
    (5.75, 2.5),
    (7.50, 3.5),
    (13.00, 1.0),
];
