//! Correctness pins: the exact simulated cycle count and `GcStats` digest
//! of every op on the pinned seeds, stored in `pins.json` beside this
//! crate. A run on a pinned seed counts each op whose outcome differs
//! from its pin as failed.

use hwgc_obs::Json;

/// Schema tag of `pins.json`.
pub const PINS_SCHEMA: &str = "hwgc-perfbench-pins-v1";

/// One pinned outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pin {
    pub workload: String,
    pub seed: u64,
    /// `""` for a single-configuration workload, `"<preset>/<cores>"`
    /// for one cell of a sweep.
    pub cell: String,
    pub cycles: u64,
    pub digest: u64,
}

/// The parsed pin file.
#[derive(Debug, Clone)]
pub struct Pins {
    /// The seed kept back while the benchmark and later changes are
    /// written, so a claim can be re-checked on unseen inputs.
    pub held_out_seed: u64,
    pins: Vec<Pin>,
}

/// What a pin lookup found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PinCheck {
    /// No pin for this (workload, seed, cell).
    Unpinned,
    Match,
    Mismatch {
        pinned_cycles: u64,
        pinned_digest: u64,
    },
}

fn field<'a>(obj: &'a Json, key: &str, at: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("{at}: missing `{key}`"))
}

fn uint(obj: &Json, key: &str, at: &str) -> Result<u64, String> {
    field(obj, key, at)?
        .as_int()
        .and_then(|i| u64::try_from(i).ok())
        .ok_or_else(|| format!("{at}: `{key}` is not an unsigned integer"))
}

fn string(obj: &Json, key: &str, at: &str) -> Result<String, String> {
    field(obj, key, at)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{at}: `{key}` is not a string"))
}

impl Pins {
    /// Parse a pin file. Rejects a wrong schema, malformed entries and a
    /// (workload, seed, cell) pinned twice.
    pub fn parse(text: &str) -> Result<Pins, String> {
        let doc = Json::parse(text).map_err(|e| format!("pins: {e:?}"))?;
        let schema = string(&doc, "schema", "pins")?;
        if schema != PINS_SCHEMA {
            return Err(format!("pins: schema `{schema}`, expected `{PINS_SCHEMA}`"));
        }
        let held_out_seed = uint(&doc, "held_out_seed", "pins")?;
        let entries = field(&doc, "pins", "pins")?
            .as_arr()
            .ok_or("pins: `pins` is not an array")?;
        let mut pins: Vec<Pin> = Vec::with_capacity(entries.len());
        for (i, e) in entries.iter().enumerate() {
            let at = format!("pins[{i}]");
            let pin = Pin {
                workload: string(e, "workload", &at)?,
                seed: uint(e, "seed", &at)?,
                cell: string(e, "cell", &at)?,
                cycles: uint(e, "cycles", &at)?,
                digest: uint(e, "digest", &at)?,
            };
            if pins
                .iter()
                .any(|p| (&p.workload, p.seed, &p.cell) == (&pin.workload, pin.seed, &pin.cell))
            {
                return Err(format!(
                    "{at}: {}/{} seed {} pinned twice",
                    pin.workload, pin.cell, pin.seed
                ));
            }
            pins.push(pin);
        }
        Ok(Pins {
            held_out_seed,
            pins,
        })
    }

    /// Is any op of `workload` pinned at `seed`?
    pub fn pinned(&self, workload: &str, seed: u64) -> bool {
        self.pins
            .iter()
            .any(|p| p.workload == workload && p.seed == seed)
    }

    /// Compare one outcome against its pin.
    pub fn check(
        &self,
        workload: &str,
        seed: u64,
        cell: &str,
        cycles: u64,
        digest: u64,
    ) -> PinCheck {
        match self
            .pins
            .iter()
            .find(|p| p.workload == workload && p.seed == seed && p.cell == cell)
        {
            None => PinCheck::Unpinned,
            Some(p) if p.cycles == cycles && p.digest == digest => PinCheck::Match,
            Some(p) => PinCheck::Mismatch {
                pinned_cycles: p.cycles,
                pinned_digest: p.digest,
            },
        }
    }

    /// Every pin, in file order.
    #[cfg(test)]
    pub fn all(&self) -> &[Pin] {
        &self.pins
    }
}

/// One pin as a line of `pins.json` (what `--pin-entries` prints).
pub fn pin_entry_json(pin: &Pin) -> String {
    Json::Obj(vec![
        ("workload".into(), Json::Str(pin.workload.clone())),
        ("seed".into(), Json::Int(pin.seed.into())),
        ("cell".into(), Json::Str(pin.cell.clone())),
        ("cycles".into(), Json::Int(pin.cycles.into())),
        ("digest".into(), Json::Int(pin.digest.into())),
    ])
    .to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = include_str!("../pins.json");

    fn committed() -> Pins {
        Pins::parse(COMMITTED).expect("the committed pin file parses")
    }

    fn pinned_cycles(pins: &Pins, workload: &str, seed: u64, cell: &str) -> u64 {
        pins.all()
            .iter()
            .find(|p| p.workload == workload && p.seed == seed && p.cell == cell)
            .unwrap_or_else(|| panic!("no pin for {workload} {cell} seed {seed}"))
            .cycles
    }

    #[test]
    fn committed_pins_parse_and_cover_both_seeds() {
        let pins = committed();
        assert_ne!(pins.held_out_seed, 42);
        for w in ["fig6_16c", "compress_1c", "db16_dram", "fig5_sweep"] {
            assert!(pins.pinned(w, 42), "{w} unpinned at seed 42");
            assert!(
                pins.pinned(w, pins.held_out_seed),
                "{w} unpinned at the held-out seed"
            );
        }
        assert_eq!(pinned_cycles(&pins, "fig6_16c", 42, ""), 174_089);
    }

    #[test]
    fn a_tampered_pin_is_a_mismatch() {
        let pins = committed();
        let real = pins
            .all()
            .iter()
            .find(|p| p.workload == "fig6_16c" && p.seed == 42)
            .unwrap()
            .clone();
        assert_eq!(
            pins.check("fig6_16c", 42, "", real.cycles, real.digest),
            PinCheck::Match
        );
        let line = pin_entry_json(&real);
        let forged = COMMITTED.replacen(&line, &line.replace("174089", "174090"), 1);
        assert_ne!(
            forged, COMMITTED,
            "the committed file carries the line verbatim"
        );
        let forged = Pins::parse(&forged).unwrap();
        assert_eq!(
            forged.check("fig6_16c", 42, "", real.cycles, real.digest),
            PinCheck::Mismatch {
                pinned_cycles: 174_090,
                pinned_digest: real.digest
            }
        );
        // A digest that does not match the cycles is caught as well.
        assert!(matches!(
            pins.check("fig6_16c", 42, "", real.cycles, real.digest ^ 1),
            PinCheck::Mismatch { .. }
        ));
        assert_eq!(pins.check("fig6_16c", 1234, "", 1, 1), PinCheck::Unpinned);
    }

    #[test]
    fn malformed_pin_files_are_rejected() {
        let ok = r#"{"schema":"hwgc-perfbench-pins-v1","held_out_seed":7,"pins":[
            {"workload":"w","seed":1,"cell":"","cycles":5,"digest":6}]}"#;
        assert!(Pins::parse(ok).is_ok());
        for bad in [
            ok.replace("-v1", "-v0"),
            ok.replace("\"cycles\":5", "\"cycles\":-5"),
            ok.replace("\"cycles\":5", "\"cycles\":\"5\""),
            ok.replace(",\"digest\":6", ""),
            ok.replace(
                "]}",
                ",{\"workload\":\"w\",\"seed\":1,\"cell\":\"\",\"cycles\":5,\"digest\":6}]}",
            ),
            ok.replace("]}", ""),
        ] {
            assert!(Pins::parse(&bad).is_err(), "accepted: {bad}");
        }
    }

    /// Reads a committed record of the repository (outside this crate).
    fn repo_record(name: &str) -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
        let text = std::fs::read_to_string(format!("{path}/{name}"))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e:?}"))
    }

    #[test]
    fn pins_agree_with_the_committed_records() {
        let pins = committed();
        let sim = repo_record("BENCH_simulator.json");
        let combos = sim.get("combos").and_then(Json::as_arr).unwrap();
        let mut checked = 0;
        for c in combos {
            let preset = c.get("preset").and_then(Json::as_str).unwrap();
            let cores = c.get("cores").and_then(Json::as_int).unwrap();
            let cycles = c.get("cycles").and_then(Json::as_int).unwrap();
            let cell = format!("{preset}/{cores}");
            assert_eq!(
                i128::from(pinned_cycles(&pins, "fig5_sweep", 42, &cell)),
                cycles,
                "{cell}"
            );
            checked += 1;
        }
        assert_eq!(checked, 24, "8 presets at 1, 4 and 16 cores");

        let traj = repo_record("BENCH_trajectory.json");
        let series = traj.get("series").and_then(Json::as_arr).unwrap();
        let fig6 = series
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some("fig6-16c"))
            .unwrap();
        let last = fig6
            .get("entries")
            .and_then(Json::as_arr)
            .unwrap()
            .last()
            .unwrap();
        let cycles = last.get("cycles").and_then(Json::as_int).unwrap();
        assert_eq!(i128::from(pinned_cycles(&pins, "fig6_16c", 42, "")), cycles);
    }
}
