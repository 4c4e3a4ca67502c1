//! Expected outputs, pinned (`pins.txt`).
//!
//! Every output the benchmark checks is known in advance: the digest of
//! each sweep unit's outcome, and the warning totals of each replayed
//! serve pass. `--pin <workload>` regenerates the lines from the program
//! itself; a change that alters an outcome fails the check until the pins
//! are regenerated on purpose.

use std::collections::HashMap;

const PINS: &str = include_str!("../pins.txt");

/// Pinned warning totals of one serve failure trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServePin {
    /// Warnings raised replaying the trace on a fresh engine.
    pub first: u64,
    /// Warnings raised replaying it right after the trace before it in
    /// the rotation (engine state carried over).
    pub next: u64,
    /// The failed link, which every pass of the trace must warn about.
    pub link: u16,
}

/// Parsed `pins.txt`.
#[derive(Debug, Default)]
pub struct Pins {
    /// `(workload, unit key)` → outcome digest.
    units: HashMap<(String, u16), u64>,
    /// Failure trace index → warnings.
    serve: HashMap<usize, ServePin>,
}

impl Pins {
    pub fn load() -> Pins {
        Self::parse(PINS)
    }

    fn parse(text: &str) -> Pins {
        let mut pins = Pins::default();
        for line in text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let f: Vec<&str> = line.split_whitespace().collect();
            let num = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok());
            match f.first() {
                Some(&"serve") => {
                    if let (Some(k), Some(first), Some(next), Some(link)) =
                        (num(1), num(2), num(3), num(4))
                    {
                        let (Ok(k), Ok(link)) = (usize::try_from(k), u16::try_from(link)) else {
                            continue;
                        };
                        pins.serve.insert(k, ServePin { first, next, link });
                    }
                }
                Some(w) => {
                    let key = num(1).and_then(|k| u16::try_from(k).ok());
                    let digest = f.get(2).and_then(|d| u64::from_str_radix(d, 16).ok());
                    if let (Some(key), Some(digest)) = (key, digest) {
                        pins.units.insert((w.to_string(), key), digest);
                    }
                }
                None => {}
            }
        }
        pins
    }

    pub fn unit(&self, workload: &str, key: u16) -> Option<u64> {
        self.units.get(&(workload.to_string(), key)).copied()
    }

    pub fn serve(&self, trace: usize) -> Option<ServePin> {
        self.serve.get(&trace).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_parse_and_cover_every_workload() {
        let p = Pins::parse("# c\nsweep-geant 17 00ff\nserve 2 10 20 9\nbogus line\n");
        assert_eq!(p.unit("sweep-geant", 17), Some(0xff));
        assert_eq!(p.unit("sweep-geant", 18), None);
        assert_eq!(
            p.serve(2),
            Some(ServePin {
                first: 10,
                next: 20,
                link: 9
            })
        );
        let committed = Pins::load();
        for k in 0..crate::serve::FAILURES {
            assert!(committed.serve(k).is_some(), "serve trace {k} unpinned");
        }
        for w in ["sweep-geant", "scale-as10k"] {
            assert!(
                committed.units.keys().any(|(name, _)| name == w),
                "{w} unpinned"
            );
        }
    }
}
