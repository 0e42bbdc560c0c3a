//! Figure 6 — scalability: compute nodes vs switch radix for 2-, 3- and
//! 4-level networks.
//!
//! One row per radix; one column per (topology, level) curve. OFT cells
//! are filled only when `R/2 − 1` is a prime power (the orders at which
//! the topology exists); RRN uses the diameter matching the level count
//! (`D = 2(l−1)`) and the paper's degree/host split.

use rfc_graph::vid;

use crate::experiments::fig5::rrn_split;
use crate::report::{Report, ReportError};
use crate::theory;

/// Levels plotted by the paper.
pub const LEVELS: [usize; 3] = [2, 3, 4];

/// Terminals supported by each curve at one radix; `None` when the
/// topology does not exist there.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalabilityRow {
    /// Switch radix.
    pub radix: usize,
    /// CFT terminals per level.
    pub cft: [u64; 3],
    /// RFC terminals per level (threshold sizing).
    pub rfc: [Option<u64>; 3],
    /// OFT terminals per level (only at prime-power orders).
    pub oft: [Option<u64>; 3],
    /// RRN terminals at the matching diameters.
    pub rrn: [Option<u64>; 3],
}

/// Computes one row.
pub fn row(radix: usize) -> ScalabilityRow {
    let mut cft = [0u64; 3];
    let mut rfc = [None; 3];
    let mut oft = [None; 3];
    let mut rrn = [None; 3];
    let q = radix / 2 - 1;
    let q_ok = rfc_galois::is_prime_power(vid(q));
    let (delta, hosts) = rrn_split(radix);
    let _ = delta;
    for (i, &l) in LEVELS.iter().enumerate() {
        cft[i] = theory::cft_terminals(radix, l) as u64;
        rfc[i] = theory::rfc_max_terminals(radix, l).map(|t| t as u64);
        if q_ok {
            oft[i] = Some(theory::oft_terminals(q, l) as u64);
        }
        let d = 2 * (l - 1);
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "a positive terminal count far below 2^64"
        )]
        let terminals = theory::rrn_switches(radix, d).map(|n| (n * hosts as f64) as u64);
        rrn[i] = terminals;
    }
    ScalabilityRow {
        radix,
        cft,
        rfc,
        oft,
        rrn,
    }
}

/// Renders the figure over a list of radices.
pub fn report(radices: &[usize]) -> Result<Report, ReportError> {
    let mut header: Vec<String> = vec!["radix".into()];
    for topo in ["cft", "rfc", "oft", "rrn"] {
        for l in LEVELS {
            header.push(format!("{topo}_l{l}"));
        }
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut rep = Report::new("fig6-scalability", &header_refs);
    for &r in radices {
        let row = row(r);
        let mut cells = vec![r.to_string()];
        cells.extend(row.cft.iter().map(|t| t.to_string()));
        let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |t| t.to_string());
        cells.extend(row.rfc.iter().copied().map(opt));
        cells.extend(row.oft.iter().copied().map(opt));
        cells.extend(row.rrn.iter().copied().map(opt));
        rep.push_row(cells)?;
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oft_scales_best_then_rfc_then_cft() {
        // The paper's ordering at radix 36, 3 levels.
        let row = row(36);
        let cft = row.cft[1];
        let rfc = row.rfc[1].unwrap();
        let oft = row.oft[1].unwrap();
        assert!(cft < rfc, "cft {cft} vs rfc {rfc}");
        assert!(rfc < oft, "rfc {rfc} vs oft {oft}");
    }

    #[test]
    fn oft_level_l_scales_like_cft_level_l_plus_1() {
        // Paper: "the l-level OFT scales at least as the CFT of level
        // l+1". The claim is asymptotic — at q = R/2 − 1 the OFT gives
        // up a little capacity to the prime-power constraint, so allow a
        // 15% margin below and expect a clear win as levels grow.
        for radix in [12usize, 24, 36] {
            let q = radix / 2 - 1;
            if !rfc_galois::is_prime_power(vid(q)) {
                continue;
            }
            for l in [2usize, 3] {
                let oft = theory::oft_terminals(q, l) as f64;
                let cft = theory::cft_terminals(radix, l + 1) as f64;
                assert!(oft >= 0.85 * cft, "R={radix} l={l}: oft {oft} vs cft {cft}");
            }
            let oft3 = theory::oft_terminals(q, 3);
            let cft4 = theory::cft_terminals(radix, 4);
            assert!(oft3 * 2 > cft4, "3-level OFT within 2x of 4-level CFT");
        }
    }

    #[test]
    fn rfc_tracks_rrn_at_equal_diameter() {
        // "its scalability is really close to the RRN with the same
        // diameter" — within a factor of ~2 at radix 36.
        let row = row(36);
        let rfc = row.rfc[1].unwrap() as f64;
        let rrn = row.rrn[1].unwrap() as f64;
        let ratio = rfc / rrn;
        assert!((0.4..2.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn report_marks_missing_oft_orders() {
        // radix 26 -> q = 12 is not a prime power, but q for radix 28
        // (13) is.
        let rep = report(&[26, 28]).unwrap();
        let text = rep.to_text();
        assert!(text
            .lines()
            .any(|l| l.trim_start().starts_with("26") && l.contains('-')));
    }
}
