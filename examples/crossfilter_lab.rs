//! Crossfilter lab: case study 2 end to end, with knobs.
//!
//! Compares mouse, touch, and Leap Motion crossfiltering sessions over
//! disk- and memory-regime backends under every optimization (raw,
//! KL>0, KL>0.2, skip), printing latency medians, QIF, skip counts and
//! LCV percentages.
//!
//! ```sh
//! cargo run --release --example crossfilter_lab [rows] [max_groups]
//! ```

use ids::experiments::case2::{run, Case2Config, DEVICES, OPTS};
use ids::report::Table;

fn main() {
    let mut args = std::env::args().skip(1);
    let rows: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(60_000);
    let max_groups: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(800);

    let config = Case2Config {
        seed: 11,
        rows,
        max_groups,
        kl_sample: 2_000,
    };
    println!(
        "crossfiltering {} rows, up to {} query groups per session\n\
         (cost model rescaled by {:.1}x to preserve the paper's regimes)\n",
        rows,
        max_groups,
        config.cost_scale()
    );
    let report = run(&config);

    println!("{}", report.render_fig11());

    let mut t = Table::new([
        "device",
        "opt",
        "disk median (ms)",
        "mem median (ms)",
        "disk LCV",
        "mem LCV",
        "skipped",
    ]);
    for device in DEVICES {
        for opt in OPTS {
            let disk = report.condition("disk", opt, device).expect("condition");
            let mem = report.condition("mem", opt, device).expect("condition");
            t.row([
                device.label().to_string(),
                opt.to_string(),
                format!("{:.0}", disk.median_latency_ms()),
                format!("{:.0}", mem.median_latency_ms()),
                format!("{:.1}%", disk.lcv_fraction * 100.0),
                format!("{:.1}%", mem.lcv_fraction * 100.0),
                disk.skipped.to_string(),
            ]);
        }
    }
    println!("{}", t.render());
    println!("{}", report.render_fig14());
    println!(
        "takeaways: the memory-regime backend stays interactive even raw;\n\
         the disk-regime backend needs skip or KL>0.2 to return to sub-second\n\
         perceived latency (Fig 13/15)."
    );
}
