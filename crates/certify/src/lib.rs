//! # lmfao-certify
//!
//! The trusted half of the execution-certificate trust split.
//!
//! The LMFAO engine (`lmfao-core`) is fast and therefore complicated:
//! plan-once/execute-many, incremental maintenance, epoch-published
//! snapshots. Rather than trusting that machinery, the engine emits cheap,
//! versioned [`Certificate`]s — integer/fixed-point witnesses of what each
//! execution and each delta application did — and this crate checks them.
//!
//! The crate deliberately shares **no execution code** with the engine: its
//! only dependency is `lmfao-data` (the fixed-point encoding and hash-map
//! alias). It re-derives every accounting identity independently and returns
//! typed [`CertError`] verdicts. CI enforces the dependency boundary with a
//! `cargo tree` check.
//!
//! ```
//! use lmfao_certify::{
//!     check_certificate, parse_certificate, to_json, Certificate, ExecuteCertificate,
//!     GroupProvenance, QueryTotals, ViewProvenance, CERTIFICATE_VERSION,
//! };
//!
//! let cert = Certificate::Execute(ExecuteCertificate {
//!     version: CERTIFICATE_VERSION,
//!     generation: 0,
//!     groups: vec![GroupProvenance {
//!         group: 0,
//!         relation: "Sales".into(),
//!         rows_scanned: 2,
//!         incoming: vec![],
//!         outputs: vec![ViewProvenance { view: 0, rows: 1, totals: vec![8 << 32] }],
//!     }],
//!     queries: vec![QueryTotals {
//!         name: "total_units".into(),
//!         view: 0,
//!         rows: 1,
//!         aggregate_indices: vec![0],
//!         totals: vec![8 << 32],
//!     }],
//! });
//! let round_tripped = parse_certificate(&to_json(&cert)).unwrap();
//! assert_eq!(round_tripped, cert);
//! assert!(check_certificate(&round_tripped).is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod check;
pub mod json;
pub mod schema;

pub use check::{check_certificate, check_chain, CertError, ChainSummary};
pub use json::{fingerprint, fnv1a64, parse_certificate, to_json};
pub use schema::{
    Certificate, ExecuteCertificate, GroupProvenance, MaintenanceCertificate, QueryTotals,
    RelationDeltaAccount, ViewDeltaAccount, ViewProvenance, CERTIFICATE_VERSION,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_execute() -> Certificate {
        Certificate::Execute(ExecuteCertificate {
            version: CERTIFICATE_VERSION,
            generation: 0,
            groups: vec![
                GroupProvenance {
                    group: 0,
                    relation: "Items".into(),
                    rows_scanned: 100,
                    incoming: vec![],
                    outputs: vec![ViewProvenance {
                        view: 1,
                        rows: 10,
                        totals: vec![1 << 32, -(3i128 << 30)],
                    }],
                },
                GroupProvenance {
                    group: 1,
                    relation: "Sales".into(),
                    rows_scanned: 1000,
                    incoming: vec![1],
                    outputs: vec![ViewProvenance {
                        view: 0,
                        rows: 4,
                        totals: vec![42 << 32],
                    }],
                },
            ],
            queries: vec![QueryTotals {
                name: "count".into(),
                view: 0,
                rows: 4,
                aggregate_indices: vec![0],
                totals: vec![42 << 32],
            }],
        })
    }

    fn sample_maintenance(parent: &Certificate) -> Certificate {
        Certificate::Maintenance(MaintenanceCertificate {
            version: CERTIFICATE_VERSION,
            generation: 1,
            txn: 1,
            parent_generation: 0,
            parent_hash: fingerprint(parent),
            relations: vec![
                RelationDeltaAccount {
                    relation: "Sales".into(),
                    rows_inserted: 3,
                    rows_deleted: 1,
                    rows_before: 1000,
                    rows_after: 1002,
                },
                RelationDeltaAccount {
                    relation: "Items".into(),
                    rows_inserted: 0,
                    rows_deleted: 0,
                    rows_before: 100,
                    rows_after: 100,
                },
            ],
            views: vec![ViewDeltaAccount {
                view: 0,
                rows_before: 4,
                rows_after: 5,
                inserted: Some(vec![5 << 32]),
                deleted: Some(vec![2 << 32]),
                propagated: Some(vec![1 << 32]),
                net: vec![4 << 32],
                totals_before: vec![42 << 32],
                totals_after: vec![46 << 32],
            }],
            queries: vec![QueryTotals {
                name: "count".into(),
                view: 0,
                rows: 5,
                aggregate_indices: vec![0],
                totals: vec![46 << 32],
            }],
        })
    }

    #[test]
    fn round_trip_preserves_both_kinds() {
        let exec = sample_execute();
        let maint = sample_maintenance(&exec);
        for cert in [exec, maint] {
            let json = to_json(&cert);
            let parsed = parse_certificate(&json).unwrap();
            assert_eq!(parsed, cert);
            assert_eq!(to_json(&parsed), json, "canonical form is stable");
        }
    }

    #[test]
    fn valid_chain_checks_clean() {
        let exec = sample_execute();
        let maint = sample_maintenance(&exec);
        let summary = check_chain([&exec, &maint]).unwrap();
        assert_eq!(summary.certificates, 2);
        assert_eq!(summary.final_generation, 1);
        assert_eq!(summary.views_tracked, 2);
        assert_eq!(summary.queries_checked, 2);
    }

    #[test]
    fn tampered_total_is_rejected() {
        let exec = sample_execute();
        let mut json = to_json(&exec);
        let needle = "\"totals\":[\"180388626432\"]"; // 42 << 32
        assert!(json.contains(needle), "fixture drifted: {json}");
        // Tamper with the *query* total only (the view total still appears
        // later in the string), so the checker sees a genuine mismatch.
        json = json.replacen("180388626432", "180388626433", 1);
        let parsed = parse_certificate(&json).unwrap();
        assert!(matches!(
            check_certificate(&parsed),
            Err(CertError::QueryTotalMismatch { .. })
                | Err(CertError::DeltaAccountingMismatch { .. })
        ));
    }

    #[test]
    fn missing_incoming_view_is_rejected() {
        let mut exec = match sample_execute() {
            Certificate::Execute(c) => c,
            _ => unreachable!(),
        };
        exec.groups[1].incoming = vec![99];
        assert_eq!(
            check_certificate(&Certificate::Execute(exec)),
            Err(CertError::MissingIncomingView { group: 1, view: 99 })
        );
    }

    #[test]
    fn broken_parent_hash_is_rejected() {
        let exec = sample_execute();
        let maint = match sample_maintenance(&exec) {
            Certificate::Maintenance(mut c) => {
                c.parent_hash ^= 1;
                Certificate::Maintenance(c)
            }
            _ => unreachable!(),
        };
        assert!(matches!(
            check_chain([&exec, &maint]),
            Err(CertError::ParentHashMismatch { generation: 1, .. })
        ));
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let json = to_json(&sample_execute()).replacen("\"version\"", "\"verzion\"", 1);
        assert!(matches!(
            parse_certificate(&json),
            Err(CertError::Malformed(_))
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut exec = match sample_execute() {
            Certificate::Execute(c) => c,
            _ => unreachable!(),
        };
        exec.version = CERTIFICATE_VERSION + 1;
        assert_eq!(
            check_certificate(&Certificate::Execute(exec)),
            Err(CertError::UnsupportedVersion {
                found: CERTIFICATE_VERSION + 1
            })
        );
    }
}
