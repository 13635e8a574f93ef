//! The analytic General-TSE model (Eq. 1/2) against brute-force enumeration and against
//! the actual megaflow generation machinery on small schemas.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tse::prelude::*;

/// On a small two-field schema, the analytic expectation matches a Monte-Carlo estimate
/// obtained by running the real generation pipeline many times.
#[test]
fn expectation_matches_monte_carlo_on_small_schema() {
    let schema = FieldSchema::new(vec![FieldDef::new("a", 4), FieldDef::new("b", 3)]);
    let table = FlowTable::whitelist_default_deny(&schema, &[(0, 5), (1, 2)]);
    let model = ExpectationModel::new(vec![4, 3]);
    let n_packets = 12u64;
    let runs = 300;
    let mut total_masks = 0usize;
    let mut rng = StdRng::seed_from_u64(4242);
    for _ in 0..runs {
        let mut dp = Datapath::new(table.clone());
        let keys = RandomKeys::on_fields(&mut rng, &schema, &[0, 1], &schema.zero_value());
        for (i, key) in keys.take(n_packets as usize).enumerate() {
            dp.process_key(&key, 64, i as f64 * 1e-3);
        }
        total_masks += dp.mask_count();
    }
    let measured = total_masks as f64 / runs as f64;
    let expected = model.expected_masks(n_packets);
    let rel_err = (measured - expected).abs() / expected;
    assert!(
        rel_err < 0.15,
        "analytic {expected:.2} vs monte-carlo {measured:.2} (rel err {rel_err:.2})"
    );
}

/// The model's ceiling equals what the exhaustive co-located trace actually achieves.
#[test]
fn model_ceiling_matches_exhaustive_trace() {
    let schema = FieldSchema::new(vec![FieldDef::new("a", 5), FieldDef::new("b", 4)]);
    let table = FlowTable::whitelist_default_deny(&schema, &[(0, 9), (1, 6)]);
    let model = ExpectationModel::new(vec![5, 4]);
    let mut dp = Datapath::new(table);
    // Exhaustive traffic: every possible header.
    let mut i = 0f64;
    for a in 0..32u128 {
        for b in 0..16u128 {
            dp.process_key(&Key::from_values(&schema, &[a, b]), 64, i);
            i += 1e-4;
        }
    }
    assert_eq!(dp.mask_count(), model.max_masks());
}

/// Theorem 4.1 in executable form: the chunked generation strategies respect the bound.
#[test]
fn chunked_strategies_respect_theorem_bound() {
    use tse::attack::bounds::single_field_entries;
    let width = 10u32;
    let schema = FieldSchema::new(vec![FieldDef::new("f", width)]);
    let table = FlowTable::whitelist_default_deny(&schema, &[(0, 313)]);
    for chunk in [1u32, 2, 5, 10] {
        let strategy = MegaflowStrategy::chunked(&schema, chunk);
        let mut cache = TupleSpace::new(schema.clone());
        for v in 0..(1u128 << width) {
            let h = Key::from_values(&schema, &[v]);
            if cache.lookup(&h, 0.0).action.is_some() {
                continue;
            }
            let (verdict, mask) = examined_megaflow(&table, &h, &strategy).unwrap();
            cache.insert(h.clone(), mask, verdict.action, 0.0).unwrap();
        }
        let k = width.div_ceil(chunk);
        // Deny-side entries must be at least the Theorem 4.1 lower bound for this k.
        let deny_entries = cache.entries().filter(|e| e.action == Action::Deny).count();
        let bound = single_field_entries(width, k);
        assert!(
            deny_entries as f64 >= bound * 0.99,
            "chunk {chunk}: {deny_entries} entries vs bound {bound}"
        );
        // And the number of deny masks is (at most) k.
        assert!(cache.mask_count() <= k as usize + 1);
    }
}
