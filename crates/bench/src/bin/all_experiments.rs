//! Runs every table and figure in sequence (the full evaluation).
use fremont_netsim::campus::CampusConfig;
fn main() {
    let cfg = CampusConfig::default();
    println!("{}", fremont_bench::exp_static::table1().render());
    println!("{}", fremont_bench::exp_static::table2().render());
    println!("{}", fremont_bench::exp_static::table3().render());
    println!("{}", fremont_bench::exp_runtime::table4(&cfg).render());
    let system = fremont_bench::exp_problems::full_campaign(&cfg, 3);
    println!(
        "Table 4 (driver-integrated): module load over the Table 7/8 campaign\n{}",
        system.load_report().render()
    );
    println!("{}", fremont_bench::exp_discovery::table5(&cfg).render());
    println!("{}", fremont_bench::exp_discovery::table6(&cfg).render());
    println!("{}", fremont_bench::exp_problems::table7(&system).render());
    let (t8, report) = fremont_bench::exp_problems::table8(&system);
    println!("{}", t8.render());
    println!("{report}");
    let (_, _, _, ascii) = fremont_bench::exp_problems::figure2(&system);
    println!("Figure 2 (ASCII rendering):\n{ascii}");
}
