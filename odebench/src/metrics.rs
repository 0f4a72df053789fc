//! The benchmark's contract, `BENCHMARK.json` at the repository root:
//! the one list of workloads, metrics, units and bounds. It is compiled
//! in, so a run, `compare` and the tests read the same copy whatever
//! the working directory.

use crate::json::{parse, Json};

const CONTRACT: &str = include_str!("../../BENCHMARK.json");

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// The share of the parent's median by which the metric may get
    /// worse; per-layer metrics carry none.
    pub bound: Option<f64>,
}

pub struct Contract {
    /// In the order a run without `--workload` takes them.
    pub workloads: Vec<String>,
    /// What a user of the system sees; reported by every workload of an
    /// untraced run.
    pub end_to_end: Vec<Metric>,
    /// Single layers, from the traced run. A metric a workload does not
    /// exercise reads 0 there.
    pub per_layer: Vec<Metric>,
}

impl Contract {
    pub fn load() -> Contract {
        let file = parse(CONTRACT).expect("BENCHMARK.json parses");
        let list = |key: &str| -> &[Json] {
            file.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        };
        let text = |item: &Json, key: &str| -> String {
            item.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: an entry lacks {key}"))
                .to_string()
        };
        let metrics = |key: &str| -> Vec<Metric> {
            list(key)
                .iter()
                .map(|item| Metric {
                    name: text(item, "name"),
                    unit: text(item, "unit"),
                    lower_is_better: text(item, "better") == "lower",
                    bound: item.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Contract {
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn the_contract_names_what_the_benchmark_runs_and_bounds_what_it_must() {
        let contract = Contract::load();
        assert_eq!(contract.workloads.len(), 4);
        for name in &contract.workloads {
            assert!(workloads::runner(name).is_some(), "no workload {name}");
        }
        // The driver refuses a bound above a quarter, and wants set-up
        // time to have the widest.
        let bound = |m: &Metric| m.bound.expect("end-to-end metrics are bounded");
        let setup = contract.end_to_end.iter().find(|m| m.name == "setup_s");
        let widest = bound(setup.expect("setup_s is an end-to-end metric"));
        for metric in &contract.end_to_end {
            let bound = bound(metric);
            assert!(bound > 0.0 && bound <= widest, "{}: {bound}", metric.name);
        }
        assert!(widest <= 0.25);
        assert!(contract.per_layer.iter().all(|m| m.bound.is_none()));
        let mut names: Vec<&str> = contract
            .end_to_end
            .iter()
            .chain(&contract.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        names.sort_unstable();
        assert!(
            names.windows(2).all(|w| w[0] != w[1]),
            "a name is used twice"
        );
    }
}
