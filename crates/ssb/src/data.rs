//! Deterministic SSB data generation.
//!
//! [`SsbDataSet::generate`] builds an in-memory SSB instance whose cardinalities
//! follow the benchmark specification, scaled by a (possibly fractional) scale
//! factor so that laptop-scale experiments remain faithful in *shape*:
//!
//! | table      | rows                                        |
//! |------------|---------------------------------------------|
//! | lineorder  | `6,000,000 × sf`                            |
//! | customer   | `30,000 × sf`                               |
//! | supplier   | `2,000 × sf`                                |
//! | part       | `200,000 × (1 + log2(sf))` (for `sf ≥ 1`)   |
//! | date       | `2,557` (1992-01-01 … 1998-12-31), fixed    |
//!
//! Generation is fully deterministic given the seed, which the tests and benchmarks
//! rely on. Foreign keys are drawn uniformly from the corresponding dimension key
//! space, so every fact row joins with exactly one row of each dimension — the SSB
//! referential-integrity property CJOIN's key/foreign-key join semantics assume.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cjoin_storage::{Catalog, Row, SnapshotId, Table, Value};

use crate::dates::{date_range, CivilDate, MONTH_NAMES, WEEKDAY_NAMES};
use crate::schema;

/// The 25 TPC-H / SSB nations with their regions.
pub const NATIONS: [(&str, &str); 25] = [
    ("ALGERIA", "AFRICA"),
    ("ARGENTINA", "AMERICA"),
    ("BRAZIL", "AMERICA"),
    ("CANADA", "AMERICA"),
    ("EGYPT", "MIDDLE EAST"),
    ("ETHIOPIA", "AFRICA"),
    ("FRANCE", "EUROPE"),
    ("GERMANY", "EUROPE"),
    ("INDIA", "ASIA"),
    ("INDONESIA", "ASIA"),
    ("IRAN", "MIDDLE EAST"),
    ("IRAQ", "MIDDLE EAST"),
    ("JAPAN", "ASIA"),
    ("JORDAN", "MIDDLE EAST"),
    ("KENYA", "AFRICA"),
    ("MOROCCO", "AFRICA"),
    ("MOZAMBIQUE", "AFRICA"),
    ("PERU", "AMERICA"),
    ("CHINA", "ASIA"),
    ("ROMANIA", "EUROPE"),
    ("SAUDI ARABIA", "MIDDLE EAST"),
    ("VIETNAM", "ASIA"),
    ("RUSSIA", "EUROPE"),
    ("UNITED KINGDOM", "EUROPE"),
    ("UNITED STATES", "AMERICA"),
];

/// The five SSB regions.
pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

const MKT_SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];
const ORDER_PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const PART_COLORS: [&str; 10] = [
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "bisque",
    "black",
    "blanched",
    "blue",
    "blush",
];
const PART_TYPES: [&str; 6] = [
    "ECONOMY ANODIZED",
    "LARGE BRUSHED",
    "MEDIUM POLISHED",
    "PROMO BURNISHED",
    "SMALL PLATED",
    "STANDARD BURNISHED",
];
const PART_CONTAINERS: [&str; 8] = [
    "SM CASE",
    "SM BOX",
    "MED BAG",
    "MED BOX",
    "LG CASE",
    "LG BOX",
    "JUMBO PACK",
    "WRAP JAR",
];

/// The first SSB calendar day.
pub const FIRST_DATE: CivilDate = CivilDate {
    year: 1992,
    month: 1,
    day: 1,
};
/// The last SSB calendar day.
pub const LAST_DATE: CivilDate = CivilDate {
    year: 1998,
    month: 12,
    day: 31,
};

/// Configuration for SSB data generation.
#[derive(Debug, Clone, PartialEq)]
pub struct SsbConfig {
    /// Scale factor; `1.0` is the canonical 6 M-row `lineorder`. Fractional values
    /// scale the fact and dimension cardinalities down proportionally (with small
    /// lower bounds so the dimensions never collapse).
    pub scale_factor: f64,
    /// RNG seed; the same seed and scale factor always produce the same data.
    pub seed: u64,
    /// Rows per storage page of the fact table (drives I/O accounting).
    pub fact_rows_per_page: usize,
    /// Physically cluster `lineorder` by `lo_orderdate`, as a warehouse whose fact
    /// table is range-partitioned by load date would (§5 of the paper): row
    /// groups then cover disjoint date ranges, so a date-restricted query skips
    /// most of them and ends at the last one it can match.
    pub cluster_by_orderdate: bool,
}

impl Default for SsbConfig {
    fn default() -> Self {
        Self {
            scale_factor: 0.01,
            seed: 0x55B,
            fact_rows_per_page: 64,
            cluster_by_orderdate: false,
        }
    }
}

impl SsbConfig {
    /// Creates a configuration with the given scale factor and seed.
    pub fn new(scale_factor: f64, seed: u64) -> Self {
        Self {
            scale_factor,
            seed,
            ..Self::default()
        }
    }

    /// The scale-factor ceiling for data generated inside `cargo test`.
    ///
    /// Tests must keep data generation a rounding error in the suite's runtime
    /// (`cargo test -q` finishes in seconds); paper-shaped scale factors belong
    /// to the benches and the `experiments` binary, which opt into them
    /// explicitly via [`SsbConfig::new`].
    pub const MAX_TEST_SCALE_FACTOR: f64 = 0.01;

    /// Test-gated constructor: like [`SsbConfig::new`] but panics when
    /// `scale_factor` exceeds [`SsbConfig::MAX_TEST_SCALE_FACTOR`]. Tests that
    /// generate data must come through here (or [`SsbConfig::tiny_for_tests`])
    /// so the "datagen stays a rounding error in the suite" invariant is
    /// enforced rather than merely documented.
    ///
    /// # Panics
    /// Panics if `scale_factor > MAX_TEST_SCALE_FACTOR`.
    pub fn for_tests(scale_factor: f64, seed: u64) -> Self {
        assert!(
            scale_factor <= Self::MAX_TEST_SCALE_FACTOR,
            "test scale factor {scale_factor} exceeds MAX_TEST_SCALE_FACTOR \
             ({}); paper-shaped scales belong to benches and the experiments \
             binary",
            Self::MAX_TEST_SCALE_FACTOR
        );
        Self::new(scale_factor, seed)
    }

    /// A tiny instance for unit and integration tests (~6k `lineorder` rows):
    /// generation stays well under a second so `cargo test -q` never waits on
    /// data generation. Use this in tests instead of [`SsbConfig::new`] unless
    /// the test specifically needs a different (still tiny) shape — then use
    /// [`SsbConfig::for_tests`].
    pub fn tiny_for_tests(seed: u64) -> Self {
        Self::for_tests(0.001, seed)
    }

    /// Enables physical clustering of the fact table by order date.
    pub fn with_clustering(mut self) -> Self {
        self.cluster_by_orderdate = true;
        self
    }

    /// Number of `customer` rows at this scale factor.
    pub fn num_customers(&self) -> usize {
        ((30_000.0 * self.scale_factor).round() as usize).max(60)
    }

    /// Number of `supplier` rows at this scale factor.
    pub fn num_suppliers(&self) -> usize {
        ((2_000.0 * self.scale_factor).round() as usize).max(20)
    }

    /// Number of `part` rows at this scale factor.
    pub fn num_parts(&self) -> usize {
        let sf = self.scale_factor;
        let n = if sf >= 1.0 {
            200_000.0 * (1.0 + sf.log2())
        } else {
            200_000.0 * sf
        };
        (n.round() as usize).max(100)
    }

    /// Number of `lineorder` rows at this scale factor.
    pub fn num_lineorders(&self) -> usize {
        ((6_000_000.0 * self.scale_factor).round() as usize).max(1_000)
    }
}

/// A fully generated SSB instance: a populated [`Catalog`] plus the metadata the
/// workload generator needs (dimension key spaces).
#[derive(Debug)]
pub struct SsbDataSet {
    config: SsbConfig,
    catalog: Arc<Catalog>,
    date_keys: Vec<i64>,
}

impl SsbDataSet {
    /// Generates an SSB instance according to `config`.
    pub fn generate(config: SsbConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let catalog = Catalog::new();

        let date_keys = Self::generate_date(&catalog);
        Self::generate_customer(&catalog, &config, &mut rng);
        Self::generate_supplier(&catalog, &config, &mut rng);
        Self::generate_part(&catalog, &config, &mut rng);
        Self::generate_lineorder(&catalog, &config, &date_keys, &mut rng);

        Self {
            config,
            catalog: Arc::new(catalog),
            date_keys,
        }
    }

    /// The generation configuration.
    pub fn config(&self) -> &SsbConfig {
        &self.config
    }

    /// The populated catalog (fact table `lineorder` + 4 dimensions).
    pub fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(&self.catalog)
    }

    /// All `d_datekey` values, ascending. Used by the workload generator to build
    /// date-range predicates of a chosen selectivity.
    pub fn date_keys(&self) -> &[i64] {
        &self.date_keys
    }

    /// Number of customer rows generated.
    pub fn num_customers(&self) -> usize {
        self.config.num_customers()
    }

    /// Number of supplier rows generated.
    pub fn num_suppliers(&self) -> usize {
        self.config.num_suppliers()
    }

    /// Number of part rows generated.
    pub fn num_parts(&self) -> usize {
        self.config.num_parts()
    }

    fn generate_date(catalog: &Catalog) -> Vec<i64> {
        let table = Table::new(schema::date_schema());
        let mut keys = Vec::new();
        let rows = date_range(FIRST_DATE, LAST_DATE).map(|d| {
            let key = d.to_datekey();
            keys.push(key);
            let month_name = MONTH_NAMES[(d.month - 1) as usize];
            let season = match d.month {
                12 | 1 | 2 => "Winter",
                3..=5 => "Spring",
                6..=8 => "Summer",
                _ => "Fall",
            };
            let weekday = d.weekday();
            Row::new(vec![
                Value::int(key),
                Value::str(format!("{month_name} {}, {}", d.day, d.year)),
                Value::str(WEEKDAY_NAMES[weekday as usize]),
                Value::str(month_name),
                Value::int(i64::from(d.year)),
                Value::int(i64::from(d.year) * 100 + i64::from(d.month)),
                Value::str(format!("{}{}", &month_name[..3], d.year)),
                Value::int(i64::from(weekday) + 1),
                Value::int(i64::from(d.day)),
                Value::int(i64::from(d.day_of_year())),
                Value::int(i64::from(d.month)),
                Value::int(i64::from(d.week_of_year())),
                Value::str(season),
                Value::int(i64::from(weekday == 6)),
                Value::int(i64::from(
                    d.day == crate::dates::days_in_month(d.year, d.month),
                )),
                Value::int(i64::from(d.month == 12 && d.day >= 25)),
                Value::int(i64::from(weekday < 5)),
            ])
        });
        table.insert_batch_unchecked(rows, SnapshotId::INITIAL);
        catalog.add_table(Arc::new(table));
        keys
    }

    fn city_of(nation: &str, rng: &mut StdRng) -> String {
        // SSB cities: the nation name truncated/padded to 9 characters plus a digit.
        let mut prefix: String = nation.chars().take(9).collect();
        while prefix.len() < 9 {
            prefix.push(' ');
        }
        format!("{prefix}{}", rng.gen_range(0..10))
    }

    fn phone_of(rng: &mut StdRng) -> String {
        format!(
            "{:02}-{:03}-{:03}-{:04}",
            rng.gen_range(10..35),
            rng.gen_range(100..1000),
            rng.gen_range(100..1000),
            rng.gen_range(1000..10000)
        )
    }

    fn generate_customer(catalog: &Catalog, config: &SsbConfig, rng: &mut StdRng) {
        let table = Table::new(schema::customer_schema());
        let n = config.num_customers();
        let rows = (1..=n).map(|key| {
            let (nation, region) = NATIONS[rng.gen_range(0..NATIONS.len())];
            Row::new(vec![
                Value::int(key as i64),
                Value::str(format!("Customer#{key:09}")),
                Value::str(format!("Address-{:06}", rng.gen_range(0..1_000_000))),
                Value::str(Self::city_of(nation, rng)),
                Value::str(nation),
                Value::str(region),
                Value::str(Self::phone_of(rng)),
                Value::str(MKT_SEGMENTS[rng.gen_range(0..MKT_SEGMENTS.len())]),
            ])
        });
        table.insert_batch_unchecked(rows, SnapshotId::INITIAL);
        catalog.add_table(Arc::new(table));
    }

    fn generate_supplier(catalog: &Catalog, config: &SsbConfig, rng: &mut StdRng) {
        let table = Table::new(schema::supplier_schema());
        let n = config.num_suppliers();
        let rows = (1..=n).map(|key| {
            let (nation, region) = NATIONS[rng.gen_range(0..NATIONS.len())];
            Row::new(vec![
                Value::int(key as i64),
                Value::str(format!("Supplier#{key:09}")),
                Value::str(format!("Address-{:06}", rng.gen_range(0..1_000_000))),
                Value::str(Self::city_of(nation, rng)),
                Value::str(nation),
                Value::str(region),
                Value::str(Self::phone_of(rng)),
            ])
        });
        table.insert_batch_unchecked(rows, SnapshotId::INITIAL);
        catalog.add_table(Arc::new(table));
    }

    fn generate_part(catalog: &Catalog, config: &SsbConfig, rng: &mut StdRng) {
        let table = Table::new(schema::part_schema());
        let n = config.num_parts();
        let rows = (1..=n).map(|key| {
            let mfgr_num = rng.gen_range(1..=5);
            let cat_num = rng.gen_range(1..=5);
            let brand_num = rng.gen_range(1..=40);
            let color = PART_COLORS[rng.gen_range(0..PART_COLORS.len())];
            Row::new(vec![
                Value::int(key as i64),
                Value::str(format!("{color} part {key}")),
                Value::str(format!("MFGR#{mfgr_num}")),
                Value::str(format!("MFGR#{mfgr_num}{cat_num}")),
                Value::str(format!("MFGR#{mfgr_num}{cat_num}{brand_num:02}")),
                Value::str(color),
                Value::str(PART_TYPES[rng.gen_range(0..PART_TYPES.len())]),
                Value::int(rng.gen_range(1..=50)),
                Value::str(PART_CONTAINERS[rng.gen_range(0..PART_CONTAINERS.len())]),
            ])
        });
        table.insert_batch_unchecked(rows, SnapshotId::INITIAL);
        catalog.add_table(Arc::new(table));
    }

    fn generate_lineorder(
        catalog: &Catalog,
        config: &SsbConfig,
        date_keys: &[i64],
        rng: &mut StdRng,
    ) {
        let table =
            Table::with_rows_per_page(schema::lineorder_schema(), config.fact_rows_per_page);
        let n = config.num_lineorders();
        let customers = config.num_customers() as i64;
        let suppliers = config.num_suppliers() as i64;
        let parts = config.num_parts() as i64;

        let mut rows = Vec::with_capacity(n);
        let mut orderkey = 0i64;
        let mut remaining_lines = 0u32;
        let mut order_date = date_keys[0];
        let mut order_total = 0i64;
        for _ in 0..n {
            if remaining_lines == 0 {
                orderkey += 1;
                remaining_lines = rng.gen_range(1..=7);
                order_date = date_keys[rng.gen_range(0..date_keys.len())];
                order_total = rng.gen_range(50_000..500_000);
            }
            let linenumber = i64::from(8 - remaining_lines);
            remaining_lines -= 1;

            let quantity = rng.gen_range(1..=50i64);
            let extended_price = rng.gen_range(900..=105_000i64);
            let discount = rng.gen_range(0..=10i64);
            let revenue = extended_price * (100 - discount) / 100;
            let supplycost = extended_price * 6 / 10;
            let tax = rng.gen_range(0..=8i64);
            let commit_offset = rng.gen_range(30..=90) as usize;
            let date_index = date_keys.iter().position(|&k| k == order_date).unwrap_or(0);
            let commit_date = date_keys[(date_index + commit_offset).min(date_keys.len() - 1)];

            rows.push(Row::new(vec![
                Value::int(orderkey),
                Value::int(linenumber),
                Value::int(rng.gen_range(1..=customers)),
                Value::int(rng.gen_range(1..=parts)),
                Value::int(rng.gen_range(1..=suppliers)),
                Value::int(order_date),
                Value::str(ORDER_PRIORITIES[rng.gen_range(0..ORDER_PRIORITIES.len())]),
                Value::int(0),
                Value::int(quantity),
                Value::int(extended_price),
                Value::int(order_total),
                Value::int(discount),
                Value::int(revenue),
                Value::int(supplycost),
                Value::int(tax),
                Value::int(commit_date),
                Value::str(SHIP_MODES[rng.gen_range(0..SHIP_MODES.len())]),
            ]));
        }
        if config.cluster_by_orderdate {
            let orderdate_col = schema::lineorder_schema()
                .column_index("lo_orderdate")
                .expect("schema");
            rows.sort_by_key(|row| row.int(orderdate_col));
        }
        table.insert_batch_unchecked(rows, SnapshotId::INITIAL);
        catalog.add_fact_table(Arc::new(table));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cjoin_common::FxHashSet;

    fn tiny() -> SsbDataSet {
        SsbDataSet::generate(SsbConfig::tiny_for_tests(42))
    }

    #[test]
    fn cardinalities_follow_spec() {
        let cfg = SsbConfig::new(1.0, 1);
        assert_eq!(cfg.num_customers(), 30_000);
        assert_eq!(cfg.num_suppliers(), 2_000);
        assert_eq!(cfg.num_parts(), 200_000);
        assert_eq!(cfg.num_lineorders(), 6_000_000);

        let cfg = SsbConfig::new(4.0, 1);
        assert_eq!(cfg.num_parts(), 600_000, "200k * (1 + log2(4))");

        let cfg = SsbConfig::new(0.01, 1);
        assert_eq!(cfg.num_customers(), 300);
        assert_eq!(cfg.num_suppliers(), 20);
        assert_eq!(cfg.num_lineorders(), 60_000);
    }

    #[test]
    fn generated_tables_have_expected_sizes() {
        let ds = tiny();
        let catalog = ds.catalog();
        assert_eq!(catalog.table("date").unwrap().len(), 2557);
        assert_eq!(catalog.table("customer").unwrap().len(), ds.num_customers());
        assert_eq!(catalog.table("supplier").unwrap().len(), ds.num_suppliers());
        assert_eq!(catalog.table("part").unwrap().len(), ds.num_parts());
        assert_eq!(
            catalog.fact_table().unwrap().len(),
            ds.config().num_lineorders()
        );
        assert_eq!(catalog.fact_table_name().as_deref(), Some("lineorder"));
        assert_eq!(ds.date_keys().len(), 2557);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SsbDataSet::generate(SsbConfig::for_tests(0.001, 7));
        let b = SsbDataSet::generate(SsbConfig::for_tests(0.001, 7));
        let fa = a.catalog().fact_table().unwrap();
        let fb = b.catalog().fact_table().unwrap();
        assert_eq!(fa.len(), fb.len());
        for i in [0u64, 10, 100, fa.len() as u64 - 1] {
            assert_eq!(
                fa.row(cjoin_storage::RowId(i)).unwrap(),
                fb.row(cjoin_storage::RowId(i)).unwrap(),
                "row {i} differs"
            );
        }

        let c = SsbDataSet::generate(SsbConfig::for_tests(0.001, 8));
        let fc = c.catalog().fact_table().unwrap();
        let differs = (0..100u64).any(|i| {
            fa.row(cjoin_storage::RowId(i)).unwrap() != fc.row(cjoin_storage::RowId(i)).unwrap()
        });
        assert!(differs, "different seeds should produce different data");
    }

    #[test]
    fn referential_integrity_holds() {
        let ds = tiny();
        let catalog = ds.catalog();
        let fact = catalog.fact_table().unwrap();
        let lo = schema::lineorder_schema();

        let key_set = |table: &str, col: &str| -> FxHashSet<i64> {
            let t = catalog.table(table).unwrap();
            let idx = t.schema().column_index(col).unwrap();
            let mut set = FxHashSet::default();
            t.for_each_visible(SnapshotId::INITIAL, |_, row| {
                set.insert(row.int(idx));
            });
            set
        };
        let custkeys = key_set("customer", "c_custkey");
        let suppkeys = key_set("supplier", "s_suppkey");
        let partkeys = key_set("part", "p_partkey");
        let datekeys = key_set("date", "d_datekey");

        let ck = lo.column_index("lo_custkey").unwrap();
        let sk = lo.column_index("lo_suppkey").unwrap();
        let pk = lo.column_index("lo_partkey").unwrap();
        let dk = lo.column_index("lo_orderdate").unwrap();
        fact.for_each_visible(SnapshotId::INITIAL, |_, row| {
            assert!(custkeys.contains(&row.int(ck)));
            assert!(suppkeys.contains(&row.int(sk)));
            assert!(partkeys.contains(&row.int(pk)));
            assert!(datekeys.contains(&row.int(dk)));
        });
    }

    #[test]
    fn revenue_is_consistent_with_price_and_discount() {
        let ds = tiny();
        let catalog = ds.catalog();
        let fact = catalog.fact_table().unwrap();
        let lo = schema::lineorder_schema();
        let price = lo.column_index("lo_extendedprice").unwrap();
        let discount = lo.column_index("lo_discount").unwrap();
        let revenue = lo.column_index("lo_revenue").unwrap();
        fact.for_each_visible(SnapshotId::INITIAL, |_, row| {
            let expected = row.int(price) * (100 - row.int(discount)) / 100;
            assert_eq!(row.int(revenue), expected);
            assert!((0..=10).contains(&row.int(discount)));
        });
    }

    #[test]
    fn dimension_values_are_well_formed() {
        let ds = tiny();
        let catalog = ds.catalog();

        let customer = catalog.table("customer").unwrap();
        let cs = customer.schema().clone();
        let nation_idx = cs.column_index("c_nation").unwrap();
        let region_idx = cs.column_index("c_region").unwrap();
        let city_idx = cs.column_index("c_city").unwrap();
        customer.for_each_visible(SnapshotId::INITIAL, |_, row| {
            let nation = row.get(nation_idx).as_str().unwrap().to_string();
            let region = row.get(region_idx).as_str().unwrap().to_string();
            let city = row.get(city_idx).as_str().unwrap().to_string();
            let expected_region = NATIONS.iter().find(|(n, _)| *n == nation).unwrap().1;
            assert_eq!(region, expected_region);
            assert_eq!(city.len(), 10, "city is 9-char prefix + digit: {city:?}");
        });

        let part = catalog.table("part").unwrap();
        let ps = part.schema().clone();
        let mfgr_idx = ps.column_index("p_mfgr").unwrap();
        let cat_idx = ps.column_index("p_category").unwrap();
        let brand_idx = ps.column_index("p_brand1").unwrap();
        part.for_each_visible(SnapshotId::INITIAL, |_, row| {
            let mfgr = row.get(mfgr_idx).as_str().unwrap().to_string();
            let cat = row.get(cat_idx).as_str().unwrap().to_string();
            let brand = row.get(brand_idx).as_str().unwrap().to_string();
            assert!(cat.starts_with(&mfgr), "{cat} starts with {mfgr}");
            assert!(brand.starts_with(&cat), "{brand} starts with {cat}");
        });
    }

    #[test]
    fn clustering_orders_fact_rows_by_orderdate() {
        let ds = SsbDataSet::generate(SsbConfig::for_tests(0.001, 42).with_clustering());
        let catalog = ds.catalog();
        let fact = catalog.fact_table().unwrap();
        let col = schema::lineorder_schema()
            .column_index("lo_orderdate")
            .unwrap();
        let mut prev = i64::MIN;
        fact.for_each_visible(SnapshotId::INITIAL, |_, row| {
            let date = row.int(col);
            assert!(date >= prev, "rows must be ordered by lo_orderdate");
            prev = date;
        });
        // Same cardinalities as the unclustered instance.
        assert_eq!(fact.len(), SsbConfig::new(0.001, 42).num_lineorders());
    }

    #[test]
    fn date_dimension_attributes_are_consistent() {
        let ds = tiny();
        let catalog = ds.catalog();
        let date = catalog.table("date").unwrap();
        let s = date.schema().clone();
        let key_idx = s.column_index("d_datekey").unwrap();
        let year_idx = s.column_index("d_year").unwrap();
        let ymnum_idx = s.column_index("d_yearmonthnum").unwrap();
        let ym_idx = s.column_index("d_yearmonth").unwrap();
        date.for_each_visible(SnapshotId::INITIAL, |_, row| {
            let key = row.int(key_idx);
            let year = row.int(year_idx);
            assert_eq!(key / 10_000, year);
            assert_eq!(row.int(ymnum_idx), year * 100 + (key / 100) % 100);
            let ym = row.get(ym_idx).as_str().unwrap();
            assert!(ym.ends_with(&year.to_string()), "{ym}");
        });
        // Q3.4's literal must exist.
        let dec1997 = date.select(SnapshotId::INITIAL, |row| {
            row.get(ym_idx).as_str().unwrap() == "Dec1997"
        });
        assert_eq!(dec1997.len(), 31);
    }
}
