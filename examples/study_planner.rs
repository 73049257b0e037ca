//! Study planner: the Section 4 methodology as a working tool.
//!
//! Given a description of the system to evaluate, this example selects
//! metrics (Table 3), decides the study setting (Fig 4) and design
//! (Fig 5), generates a counterbalanced condition assignment, audits the
//! plan for validity threats, and prints the bias-mitigation checklist
//! (Table 4).
//!
//! ```sh
//! cargo run --release --example study_planner
//! ```

use ids::metrics::selection::{recommend, validate_plan, when_to_use, SystemTraits};
use ids::report::Table;
use ids::simclock::rng::SimRng;
use ids::study::assignment::{balanced_latin_square, latin_square_orders};
use ids::study::bias::{mitigation_checklist, BiasSide};
use ids::study::design::{
    recommend_design, recommend_setting, Setting, SettingNeeds, StudyDesign, TaskTraits,
};
use ids::study::simulate::{run_counterbalanced, run_naive_within_subject, TwoSystemTask};
use ids::study::validity::{check_plan, StudyPlan};

fn main() {
    // The system under evaluation: a touch-first crossfiltering tool for
    // clinical analysts (domain-specific, bursty, high-frame-rate).
    let traits = SystemTraits {
        domain_specific: true,
        bursty_queries: true,
        high_frame_rate_device: true,
        large_data: true,
        task_based: true,
        walk_up_tool: true,
        ..SystemTraits::default()
    };

    // 1. Metric selection (Table 3).
    let metrics = recommend(&traits);
    let mut t = Table::new(["metric", "why (when to use)"]);
    for m in &metrics {
        t.row([m.name(), when_to_use(*m)]);
    }
    println!("Selected metrics:\n{}", t.render());

    // 2. Study setting (Fig 4): device-dependent → in person.
    let setting = recommend_setting(&SettingNeeds {
        comparison_against_control: true,
        device_dependent: true,
        think_aloud: false,
    });
    assert_eq!(setting, Setting::InPerson);
    println!("Setting (Fig 4): {setting:?} — device-dependent comparison\n");

    // 3. Design per metric (Fig 5).
    let mut d = Table::new(["metric", "design"]);
    for m in &metrics {
        d.row([
            m.name().to_string(),
            format!("{:?}", recommend_design(*m, &TaskTraits::default())),
        ]);
    }
    println!("Design per metric (Fig 5):\n{}", d.render());

    // 4. Counterbalancing: 12 participants across 4 task orders.
    let mut rng = SimRng::seed(99);
    let orders = latin_square_orders(12, 4, &mut rng);
    let mut o = Table::new(["participant", "task order"]);
    for (p, order) in orders.iter().enumerate() {
        let pretty: Vec<String> = order.iter().map(|c| format!("T{c}")).collect();
        o.row([p.to_string(), pretty.join(" -> ")]);
    }
    println!("Counterbalanced orders (Latin square):\n{}", o.render());
    let balanced = balanced_latin_square(4);
    println!(
        "balanced 4x4 Williams square (first row): {:?}\n",
        balanced[0]
    );

    // 5. Validity audit.
    let plan = StudyPlan {
        setting,
        design: StudyDesign::WithinSubject,
        order_controlled: true,
        breaks_scheduled: false, // oops
        participants: 12,
        realistic_tasks: true,
        uses_proxy_metrics: true, // completion time as "effort"
    };
    println!("Validity audit:");
    for concern in check_plan(&plan) {
        println!("  [{:?}] {}", concern.aspect, concern.note);
    }
    let issues = validate_plan(&traits, &metrics);
    println!(
        "metric-plan gaps: {}\n",
        if issues.is_empty() {
            "none"
        } else {
            "see above"
        }
    );

    // 6. Why counterbalancing matters, demonstrated: simulate the study
    // with synthetic participants whose learning effect favors whichever
    // system comes second.
    let task = TwoSystemTask { true_ratio: 0.85 }; // system B truly 15% faster
    let naive = run_naive_within_subject(&task, 200, 42);
    let balanced = run_counterbalanced(&task, 200, 42);
    println!(
        "Simulated within-subject study (true effect: B = {:.0}% of A's time):\n  \
         naive order (A always first): measured {:.0}%  <- learning inflates B\n  \
         counterbalanced (AB/BA):      measured {:.0}%  <- unbiased\n",
        task.true_ratio * 100.0,
        naive.measured_ratio() * 100.0,
        balanced.measured_ratio() * 100.0,
    );

    // 7. Bias-mitigation checklist (Table 4).
    for (side, label) in [
        (BiasSide::Participant, "participant-side"),
        (BiasSide::Experimenter, "experimenter-side"),
    ] {
        println!("{label} bias mitigations:");
        for (bias, measure) in mitigation_checklist(Some(side)) {
            println!("  {bias:?}: {measure}");
        }
    }
}
