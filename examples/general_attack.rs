//! General TSE (§6): no co-location, no knowledge of the ACL — just random packets
//! towards the victim's address. Compares the measured number of MFC masks against the
//! analytic expectation (Eq. 1/2) for growing trace sizes.
//!
//! Run with: `cargo run --release --example general_attack`

use rand::rngs::StdRng;
use rand::SeedableRng;
use tse::prelude::*;

fn main() {
    let schema = FieldSchema::ovs_ipv4();
    let scenario = Scenario::SipDp; // what an OpenStack tenant ACL exposes
    let model = ExpectationModel::for_scenario(&schema, scenario);

    println!("General TSE against an unknown {} ACL", scenario.name());
    println!("{:>10} {:>12} {:>12}", "packets", "expected", "measured");
    for &n in &[100usize, 1_000, 5_000, 20_000] {
        let table = scenario.flow_table(&schema);
        let mut dp = Datapath::new(table);
        let rng = StdRng::seed_from_u64(7);
        let keys = RandomKeys::new(rng, &schema, scenario, &schema.zero_value()).take(n);
        for (i, key) in keys.enumerate() {
            dp.process_key(&key, 64, i as f64 * 1e-3);
        }
        println!(
            "{:>10} {:>12.1} {:>12}",
            n,
            model.expected_masks(n as u64),
            dp.mask_count()
        );
    }
    println!(
        "\nceiling for this ACL (Co-located attack): {} masks",
        model.max_masks()
    );
}
