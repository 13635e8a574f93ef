//! The slow path: full flow-table processing plus megaflow generation and installation
//! (`ovs-vswitchd`'s upcall handling in the real system).

use tse_classifier::flowtable::FlowTable;
use tse_classifier::rule::Action;
use tse_classifier::strategy::{
    examined_megaflow, generate_megaflow, install_megaflow, GenerationError, MegaflowStrategy,
};
use tse_classifier::tss::TupleSpace;
use tse_packet::fields::Key;

/// Outcome of one slow-path invocation (one upcall).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpcallOutcome {
    /// The verdict for the packet that triggered the upcall.
    pub action: Action,
    /// Index of the flow-table rule that matched.
    pub rule_index: usize,
    /// Whether a new megaflow entry was installed into the fast path.
    pub installed: bool,
    /// Whether installation created a brand-new mask (grew the tuple space).
    pub new_mask: bool,
}

/// The slow path: owns nothing, operates on the flow table and megaflow cache the
/// datapath hands it. Separated out so that MFCGuard and the CPU model can account
/// upcall work precisely.
#[derive(Debug, Clone)]
pub struct SlowPath {
    strategy: MegaflowStrategy,
    /// Rules whose megaflows must *not* be (re-)installed into the fast path. This
    /// models the behaviour the paper observed while building MFCGuard: "once an MFC
    /// entry is deleted it will never be sparked again" — entries MFCGuard wipes stay
    /// out of the fast path and their packets keep hitting the slow path (§8).
    suppressed_rules: Vec<usize>,
    /// Count of upcalls that could not install an entry because the covering rule is
    /// suppressed (these packets will keep coming back).
    suppressed_upcalls: u64,
    /// Remaining megaflow installs allowed before the quota window is re-armed
    /// (`None` = unlimited, the default). See [`SlowPath::set_install_quota`].
    install_quota: Option<u64>,
    /// Cumulative count of upcalls answered without an install because the quota was
    /// exhausted.
    quota_denied_upcalls: u64,
    /// Rules the upcalls' table walks looked at; see [`SlowPath::rules_walked`].
    rules_walked: u64,
}

impl SlowPath {
    /// Create a slow path with the given megaflow-generation strategy.
    pub fn new(strategy: MegaflowStrategy) -> Self {
        SlowPath {
            strategy,
            suppressed_rules: Vec::new(),
            suppressed_upcalls: 0,
            install_quota: None,
            quota_denied_upcalls: 0,
            rules_walked: 0,
        }
    }

    /// The generation strategy in use.
    pub fn strategy(&self) -> &MegaflowStrategy {
        &self.strategy
    }

    /// Mark a flow-table rule as suppressed: packets matching it are still classified
    /// correctly, but no megaflow is installed for them (they stay on the slow path).
    pub fn suppress_rule(&mut self, rule_index: usize) {
        if !self.suppressed_rules.contains(&rule_index) {
            self.suppressed_rules.push(rule_index);
        }
    }

    /// Currently suppressed rule indices.
    pub fn suppressed_rules(&self) -> &[usize] {
        &self.suppressed_rules
    }

    /// Carry suppression across a table install: a suppressed index names a rule of
    /// `old`, and the install may move that rule (an ACL update that adds a clause in
    /// front of the merged table's DefaultDeny shifts it by one). Each suppressed rule
    /// is re-pointed at the index of the equal rule in `new` — the first, the one a
    /// lookup would match — and dropped if `new` has none.
    pub(crate) fn carry_suppression(&mut self, old: &FlowTable, new: &FlowTable) {
        let mut carried = Vec::with_capacity(self.suppressed_rules.len());
        for rule in self
            .suppressed_rules
            .iter()
            .filter_map(|&i| old.rules().get(i))
        {
            if let Some(index) = new.rules().iter().position(|r| r == rule) {
                if !carried.contains(&index) {
                    carried.push(index);
                }
            }
        }
        self.suppressed_rules = carried;
    }

    /// Number of upcalls answered without a fast-path install because of suppression.
    pub fn suppressed_upcalls(&self) -> u64 {
        self.suppressed_upcalls
    }

    /// (Re-)arm the megaflow-install quota: at most `quota` installs are performed
    /// until the next call; further upcalls are still classified correctly but no
    /// entry is installed for them (they stay on the slow path) and
    /// [`SlowPath::quota_denied_upcalls`] advances. `None` removes the limit.
    ///
    /// This models OVS's upcall governance (bounded `ovs-vswitchd` handler/flow-put
    /// budget per revalidation interval): a caller that re-arms the quota once per
    /// measurement interval gets a per-interval install ceiling, which is exactly how
    /// the `UpcallLimiter` mitigation drives it.
    pub fn set_install_quota(&mut self, quota: Option<u64>) {
        self.install_quota = quota;
    }

    /// Cumulative number of upcalls answered without an install because the quota was
    /// exhausted (monotone; callers interested in per-interval counts diff successive
    /// readings).
    pub fn quota_denied_upcalls(&self) -> u64 {
        self.quota_denied_upcalls
    }

    /// Rules walked, summed over every upcall: each upcall's one priority walk of the
    /// table adds its verdict's [`TableMatch::rules_inspected`] — a deterministic count
    /// of the slow path's classification work (the dry walk of a quota-exhausted upcall
    /// repeats it and is not counted again).
    ///
    /// [`TableMatch::rules_inspected`]: tse_classifier::flowtable::TableMatch::rules_inspected
    pub fn rules_walked(&self) -> u64 {
        self.rules_walked
    }

    /// Handle one upcall: classify `header` against `table`, generate a megaflow under
    /// the Cover/Independence invariants and install it into `cache` (unless the matched
    /// rule is suppressed or the header is already covered).
    ///
    /// One walk of the table gives the verdict and the widened megaflow together. A
    /// suppressed rule's answer is that verdict alone, so nothing else runs. Otherwise
    /// the megaflow goes straight to [`install_megaflow`]: the cache checks Inv(2) on the
    /// walk of its probe lane that files the entry, and a refusal narrows the megaflow by
    /// the entry it names and tries again — the entry
    /// [`generate_megaflow`] settles on, installed without asking the cache first. Only
    /// an upcall whose quota window is exhausted, which installs nothing, asks: its dry
    /// `generate_megaflow` tells a would-be install, which it is charged for, from an
    /// already-covered header.
    pub fn handle_upcall(
        &mut self,
        table: &FlowTable,
        cache: &mut TupleSpace,
        header: &Key,
        now: f64,
    ) -> Option<UpcallOutcome> {
        let (verdict, mask) = examined_megaflow(table, header, &self.strategy)?;
        self.rules_walked += verdict.rules_inspected as u64;
        let mut outcome = UpcallOutcome {
            action: verdict.action,
            rule_index: verdict.rule_index,
            installed: false,
            new_mask: false,
        };
        if self.suppressed_rules.contains(&verdict.rule_index) {
            self.suppressed_upcalls += 1;
            return Some(outcome);
        }
        if self.install_quota == Some(0) {
            // Quota window exhausted: classify, but install nothing — the packet (and
            // every sibling behind it) keeps paying the slow-path price until the quota
            // is re-armed. Only real would-be installs are charged, not already-covered
            // upcalls.
            match generate_megaflow(table, cache, header, &self.strategy) {
                Ok(_) => self.quota_denied_upcalls += 1,
                Err(GenerationError::AlreadyCovered(_)) => {}
                Err(_) => return None,
            }
            return Some(outcome);
        }
        let masks_before = cache.mask_count();
        match install_megaflow(table, cache, header, (verdict, mask), &self.strategy, now) {
            Ok(_) => {
                outcome.installed = true;
                outcome.new_mask = cache.mask_count() > masks_before;
                if let Some(quota) = &mut self.install_quota {
                    *quota -= 1;
                }
            }
            Err(GenerationError::AlreadyCovered(_)) => {}
            Err(_) => return None,
        }
        Some(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tse_classifier::flowtable::FlowTable;
    use tse_classifier::rule::Rule;
    use tse_classifier::strategy::FieldStrategy;
    use tse_packet::fields::{FieldDef, FieldSchema, Key};

    fn hyp(v: u128) -> Key {
        Key::from_values(&FieldSchema::hyp(), &[v])
    }

    #[test]
    fn upcall_installs_megaflow() {
        let table = FlowTable::fig1_hyp();
        let mut cache = TupleSpace::new(table.schema().clone());
        let mut sp = SlowPath::new(MegaflowStrategy::wildcarding(table.schema()));
        let out = sp
            .handle_upcall(&table, &mut cache, &hyp(0b001), 0.0)
            .unwrap();
        assert_eq!(out.action, Action::Allow);
        assert!(out.installed);
        assert!(out.new_mask);
        assert_eq!(cache.entry_count(), 1);
    }

    #[test]
    fn second_upcall_for_covered_header_installs_nothing() {
        let table = FlowTable::fig1_hyp();
        let mut cache = TupleSpace::new(table.schema().clone());
        let mut sp = SlowPath::new(MegaflowStrategy::wildcarding(table.schema()));
        sp.handle_upcall(&table, &mut cache, &hyp(0b111), 0.0);
        // 101 is covered by the (1**) deny megaflow.
        let out = sp
            .handle_upcall(&table, &mut cache, &hyp(0b101), 0.0)
            .unwrap();
        assert_eq!(out.action, Action::Deny);
        assert!(!out.installed);
        assert_eq!(cache.entry_count(), 1);
        // Each walk passed the allow rule and matched the DefaultDeny, installed or not.
        assert_eq!(sp.rules_walked(), 2 + 2);
    }

    #[test]
    fn suppressed_rule_never_reinstalled() {
        let table = FlowTable::fig1_hyp();
        let mut cache = TupleSpace::new(table.schema().clone());
        let mut sp = SlowPath::new(MegaflowStrategy::wildcarding(table.schema()));
        sp.suppress_rule(1); // the DefaultDeny rule
        for h in [0b000u128, 0b100, 0b111] {
            let out = sp.handle_upcall(&table, &mut cache, &hyp(h), 0.0).unwrap();
            assert_eq!(out.action, Action::Deny);
            assert!(!out.installed);
        }
        assert_eq!(cache.entry_count(), 0);
        assert_eq!(sp.suppressed_upcalls(), 3);
        // Allowed traffic is unaffected.
        let out = sp
            .handle_upcall(&table, &mut cache, &hyp(0b001), 0.0)
            .unwrap();
        assert!(out.installed);
    }

    #[test]
    fn install_quota_caps_installs_until_rearmed() {
        let schema = FieldSchema::ovs_ipv4();
        let tp_dst = schema.field_index("tp_dst").unwrap();
        let tp_src = schema.field_index("tp_src").unwrap();
        let table = FlowTable::whitelist_default_deny(&schema, &[(tp_dst, 80)]);
        let mut cache = TupleSpace::new(schema.clone());
        // Exact-match generation: every distinct key is its own install, so the quota
        // arithmetic is visible key by key.
        let mut sp = SlowPath::new(MegaflowStrategy::exact_match(&schema));
        sp.set_install_quota(Some(2));
        // Distinct deny keys: each would install its own megaflow.
        for i in 0..5u128 {
            let mut k = schema.zero_value();
            k.set(tp_src, 1000 + i);
            k.set(tp_dst, 9000 + i);
            let out = sp.handle_upcall(&table, &mut cache, &k, 0.0).unwrap();
            assert_eq!(out.action, Action::Deny, "verdict unaffected by the quota");
            assert_eq!(out.installed, i < 2, "only the first two installs land");
        }
        assert_eq!(cache.entry_count(), 2);
        assert_eq!(sp.quota_denied_upcalls(), 3);
        // Re-arm: installs resume; the cumulative denial counter keeps its history.
        sp.set_install_quota(Some(1));
        let mut k = schema.zero_value();
        k.set(tp_src, 7);
        k.set(tp_dst, 7777);
        assert!(
            sp.handle_upcall(&table, &mut cache, &k, 1.0)
                .unwrap()
                .installed
        );
        assert_eq!(sp.quota_denied_upcalls(), 3);
        // Removing the limit entirely restores unbounded installs.
        sp.set_install_quota(None);
        let mut k = schema.zero_value();
        k.set(tp_src, 8);
        k.set(tp_dst, 8888);
        assert!(
            sp.handle_upcall(&table, &mut cache, &k, 1.0)
                .unwrap()
                .installed
        );
    }

    #[test]
    fn already_covered_upcalls_do_not_consume_quota() {
        let table = FlowTable::fig1_hyp();
        let mut cache = TupleSpace::new(table.schema().clone());
        let mut sp = SlowPath::new(MegaflowStrategy::wildcarding(table.schema()));
        sp.set_install_quota(Some(1));
        assert!(
            sp.handle_upcall(&table, &mut cache, &hyp(0b111), 0.0)
                .unwrap()
                .installed
        );
        // 101 is covered by the (1**) deny megaflow: answered, not installed, and the
        // exhausted quota is not charged for it either.
        let out = sp
            .handle_upcall(&table, &mut cache, &hyp(0b101), 0.0)
            .unwrap();
        assert!(!out.installed);
        assert_eq!(sp.quota_denied_upcalls(), 0);
    }

    /// With the quota armed, a header an entry already covers takes the install's
    /// `AlreadyCovered` arm: answered with the table's verdict, nothing installed, nothing
    /// charged — the window's one install is still there for the next new megaflow.
    #[test]
    fn refused_install_is_answered_without_charging_the_quota() {
        let table = FlowTable::fig1_hyp();
        let mut cache = TupleSpace::new(table.schema().clone());
        // The (1**) deny megaflow, resident before the quota is armed.
        cache
            .insert(hyp(0b100), hyp(0b100), Action::Deny, 0.0)
            .unwrap();
        let before = cache.render();
        let mut sp = SlowPath::new(MegaflowStrategy::wildcarding(table.schema()));
        sp.set_install_quota(Some(1));
        let out = sp.handle_upcall(&table, &mut cache, &hyp(0b101), 0.0);
        let expected = UpcallOutcome {
            action: Action::Deny,
            rule_index: 1,
            installed: false,
            new_mask: false,
        };
        assert_eq!(out, Some(expected), "answered as already covered");
        assert_eq!(cache.render(), before, "nothing installed");
        assert_eq!(sp.quota_denied_upcalls(), 0);
        assert_eq!(sp.suppressed_upcalls(), 0);
        let allowed = sp.handle_upcall(&table, &mut cache, &hyp(0b001), 0.0);
        assert!(allowed.is_some_and(|o| o.installed), "nothing charged");
    }

    /// What `handle_upcall` did before it installed directly: generate against the
    /// cache, then insert, under the same suppression and quota rules. Returns the
    /// outcome and advances `(suppressed upcalls, quota-denied upcalls, quota)`; the
    /// quota left is observed only through the outcomes it allows.
    fn reference_upcall(
        table: &FlowTable,
        cache: &mut TupleSpace,
        header: &Key,
        strategy: &MegaflowStrategy,
        suppressed: &[usize],
        counters: &mut (u64, u64, Option<u64>),
    ) -> Option<UpcallOutcome> {
        let (action, rule_index, generated) =
            match generate_megaflow(table, cache, header, strategy) {
                Ok(g) => (g.action, g.rule_index, Some(g)),
                Err(GenerationError::AlreadyCovered(m)) => (m.action, m.rule_index, None),
                Err(_) => return None,
            };
        let mut outcome = UpcallOutcome {
            action,
            rule_index,
            installed: false,
            new_mask: false,
        };
        if suppressed.contains(&rule_index) {
            counters.0 += 1;
            return Some(outcome);
        }
        let Some(g) = generated else {
            return Some(outcome);
        };
        if counters.2 == Some(0) {
            counters.1 += 1;
            return Some(outcome);
        }
        let masks = cache.mask_count();
        cache.insert(g.key, g.mask, g.action, 0.0).unwrap();
        outcome.installed = true;
        outcome.new_mask = cache.mask_count() > masks;
        if let Some(quota) = &mut counters.2 {
            *quota -= 1;
        }
        Some(outcome)
    }

    proptest! {
        /// `handle_upcall` against the reference it replaced, on two random tables of
        /// prioritised allow/deny rules over two 4-bit fields, each header classified by
        /// one of them against the one cache — a table replaced under a cache nobody
        /// flushed. Megaflows of one table never overlap (each records the bits its walk
        /// examined, and two walks part on a bit both examine); across the two they do, so
        /// installs are refused and narrowed. A rule may be suppressed, and a quota may
        /// run out part-way. Every header is looked up on both caches first, as the
        /// datapath does, then upcalled whether it hit or not: the same outcomes, the same
        /// counters, and the same caches, hit counts included.
        #[test]
        fn upcalls_match_generate_then_insert(
            rules in proptest::collection::vec((0u128..256, 0u128..256, 0u32..8, 0usize..2), 1..12),
            headers in proptest::collection::vec((0u128..256, 0usize..2), 1..60),
            policy in (0usize..3, 0usize..12, 0u64..12),
        ) {
            let schema = FieldSchema::new(vec![FieldDef::new("a", 4), FieldDef::new("b", 4)]);
            let key = |v: u128| Key::from_values(&schema, &[v >> 4, v & 15]);
            let mut tables = [FlowTable::new(schema.clone()), FlowTable::new(schema.clone())];
            for &(k, m, rank, t) in &rules {
                let action = if rank % 2 == 1 { Action::Allow } else { Action::Deny };
                tables[t].push(Rule::new(key(k), key(m), rank / 2, action));
            }
            for table in &mut tables {
                table.push(Rule::match_all(&schema, 0, Action::Deny));
            }
            let (strategy, suppressed, quota) = policy;
            let strategy = match strategy {
                0 => MegaflowStrategy::wildcarding(&schema),
                1 => MegaflowStrategy::chunked(&schema, 2),
                _ => MegaflowStrategy::per_field(vec![FieldStrategy::Exact, FieldStrategy::BitLevel]),
            };
            let suppressed: Vec<usize> = (suppressed < 8).then_some(suppressed).into_iter().collect();
            let quota = (quota < 8).then_some(quota);

            let mut sp = SlowPath::new(strategy.clone());
            for &rule in &suppressed {
                sp.suppress_rule(rule);
            }
            sp.set_install_quota(quota);
            let mut counters = (0, 0, quota);
            let mut cache = TupleSpace::new(schema.clone());
            let mut reference = TupleSpace::new(schema.clone());
            for (i, &(h, t)) in headers.iter().enumerate() {
                let (h, now, table) = (key(h), i as f64, &tables[t]);
                prop_assert_eq!(cache.lookup(&h, now), reference.lookup(&h, now));
                let got = sp.handle_upcall(table, &mut cache, &h, now);
                let want = reference_upcall(table, &mut reference, &h, &strategy, &suppressed, &mut counters);
                prop_assert_eq!(got, want, "header {} on table {}", h, t);
                prop_assert_eq!(
                    (sp.suppressed_upcalls(), sp.quota_denied_upcalls()),
                    (counters.0, counters.1)
                );
                prop_assert_eq!(cache.render(), reference.render());
                prop_assert_eq!(cache.mask_usage(), reference.mask_usage());
            }
            prop_assert!(cache.check_independence());
        }
    }

    #[test]
    fn empty_table_returns_none() {
        let schema = FieldSchema::hyp();
        let table = FlowTable::new(schema.clone());
        let mut cache = TupleSpace::new(schema.clone());
        let mut sp = SlowPath::new(MegaflowStrategy::wildcarding(&schema));
        assert!(sp.handle_upcall(&table, &mut cache, &hyp(0), 0.0).is_none());
    }

    #[test]
    fn suppress_is_idempotent() {
        let schema = FieldSchema::hyp();
        let mut sp = SlowPath::new(MegaflowStrategy::wildcarding(&schema));
        sp.suppress_rule(3);
        sp.suppress_rule(3);
        assert_eq!(sp.suppressed_rules(), &[3]);
    }
}
