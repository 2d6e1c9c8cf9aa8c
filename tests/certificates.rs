//! Execution certificates end to end: the untrusted engine emits them, the
//! independent `lmfao-certify` checker (which shares no execution code with
//! the engine) must accept every honestly produced certificate across all
//! four paper datasets and the whole optimization ablation ladder — and must
//! reject every tampered one with the right typed verdict.
//!
//! The round trip under test is the real trust boundary: certificate →
//! canonical JSON → parse → check. Equality after the round trip guarantees
//! the fingerprint chain is stable under serialization.

use lmfao::certify::{
    self, check_certificate, check_chain, parse_certificate, to_json, CertError, Certificate,
};
use lmfao::datagen::{self, fact_relation, update_stream, Scale, UpdateMix};
use lmfao::engine::EngineConfig;
use lmfao::prelude::*;
use lmfao_bench::{engine_for, WorkloadSpec};

/// A representative batch per dataset: COUNT, a sum, a sum of squares, a
/// sum-product and a group-by (the shapes the paper's workloads are made of).
fn workload(ds: &Dataset) -> QueryBatch {
    let (measure, group) = spec(ds);
    let mut batch = QueryBatch::new();
    batch.push("count", vec![], vec![Aggregate::count()]);
    batch.push("sum", vec![], vec![Aggregate::sum(measure)]);
    batch.push("sum_sq", vec![], vec![Aggregate::sum_square(measure)]);
    batch.push("per_cat", vec![group], vec![Aggregate::sum(measure)]);
    batch
}

/// (continuous measure, group-by attribute) per dataset.
fn spec(ds: &Dataset) -> (AttrId, AttrId) {
    match ds.name.as_str() {
        "Retailer" => (ds.attr("inventoryunits"), ds.attr("category")),
        "Favorita" => (ds.attr("units"), ds.attr("family")),
        "Yelp" => (ds.attr("stars"), ds.attr("bcity")),
        "TPC-DS" => (ds.attr("quantity"), ds.attr("icategory")),
        other => panic!("unknown dataset {other}"),
    }
}

/// Every dataset × every rung of the ablation ladder, over the hand-built
/// batch and the five Table-3 batches (Count, CM, RT, MI, DC): the emitted
/// execute certificate passes the checker, survives the canonical-JSON round
/// trip bit-identically, and still passes afterwards.
#[test]
fn execute_certificates_verify_across_datasets_and_ladder() {
    let dynamics = DynamicRegistry::new();
    for ds in datagen::all_datasets(Scale::small()) {
        let spec = WorkloadSpec::for_dataset(&ds.name);
        let mut batches = vec![("shapes", workload(&ds)), ("Count", spec.count_batch(&ds))];
        batches.extend(spec.workloads(&ds));
        for (rung, config) in EngineConfig::ablation_ladder(2) {
            let engine = engine_for(&ds, config);
            for (wl, batch) in &batches {
                let at = format!("{}/{wl}/{rung}", ds.name);
                let prepared = engine.prepare(batch).unwrap();
                let (result, cert) = prepared.execute_certified(&dynamics).unwrap();
                assert!(!result.queries.is_empty(), "{at}: empty result");
                check_certificate(&cert).unwrap_or_else(|e| panic!("{at}: checker rejected: {e}"));

                let json = to_json(&cert);
                let parsed =
                    parse_certificate(&json).unwrap_or_else(|e| panic!("{at}: parse failed: {e}"));
                assert_eq!(parsed, cert, "{at}: round trip not identity");
                check_certificate(&parsed).unwrap();
                assert_eq!(
                    certify::fingerprint(&parsed),
                    certify::fingerprint(&cert),
                    "{at}: fingerprint unstable under round trip"
                );
            }
        }
    }
}

/// Collects the full certificate chain of a maintained batch over an update
/// stream: the generation-0 execute certificate plus one maintenance
/// certificate per applied delta.
fn chain_for(ds: &Dataset, applies: usize) -> Vec<Certificate> {
    let dynamics = DynamicRegistry::new();
    let batch = workload(ds);
    let mut live = engine_for(ds, EngineConfig::default())
        .prepare(&batch)
        .unwrap()
        .into_serving(&dynamics)
        .unwrap();
    let mut chain: Vec<Certificate> = vec![(**live.snapshot().certificate()).clone()];
    let stream = update_stream(
        ds,
        fact_relation(&ds.name),
        &UpdateMix::balanced(applies).seed(9),
    );
    for delta in &stream {
        live.commit(delta, &dynamics).unwrap();
        chain.push((**live.snapshot().certificate()).clone());
    }
    chain
}

/// The maintenance chain of every dataset checks clean, before and after the
/// canonical-JSON round trip of every link.
#[test]
fn maintenance_chains_verify_across_datasets() {
    const APPLIES: usize = 6;
    for ds in datagen::all_datasets(Scale::small()) {
        let chain = chain_for(&ds, APPLIES);
        assert_eq!(chain.len(), APPLIES + 1, "{}", ds.name);
        let summary =
            check_chain(&chain).unwrap_or_else(|e| panic!("{}: chain rejected: {e}", ds.name));
        assert_eq!(summary.certificates, APPLIES as u64 + 1, "{}", ds.name);
        assert_eq!(summary.final_generation, APPLIES as u64, "{}", ds.name);

        let rehydrated: Vec<Certificate> = chain
            .iter()
            .map(|c| parse_certificate(&to_json(c)).unwrap())
            .collect();
        assert_eq!(check_chain(&rehydrated).unwrap(), summary, "{}", ds.name);
    }
}

/// A forged query total on a real engine-emitted certificate is rejected
/// with the precise verdict naming the disagreeing aggregate.
#[test]
fn tampered_query_total_is_rejected() {
    let ds = datagen::all_datasets(Scale::small()).swap_remove(1); // Favorita
    let prepared = engine_for(&ds, EngineConfig::default())
        .prepare(&workload(&ds))
        .unwrap();
    let (_, cert) = prepared.execute_certified(&DynamicRegistry::new()).unwrap();
    let mut forged = cert.clone();
    let Certificate::Execute(c) = &mut forged else {
        panic!("execute path must emit an execute certificate");
    };
    c.queries[1].totals[0] += 1;
    assert!(matches!(
        check_certificate(&forged),
        Err(CertError::QueryTotalMismatch { .. })
    ));

    // A forged published row count is a different, equally typed verdict.
    let mut forged = cert;
    let Certificate::Execute(c) = &mut forged else {
        unreachable!()
    };
    c.queries[0].rows += 1;
    assert!(matches!(
        check_certificate(&forged),
        Err(CertError::QueryRowMismatch { .. })
    ));
}

/// Forging maintenance accounting — published totals that the signed net
/// cannot explain — is rejected, as is breaking the hash chain.
#[test]
fn tampered_maintenance_chain_is_rejected() {
    let ds = datagen::all_datasets(Scale::small()).swap_remove(0); // Retailer
    let chain = chain_for(&ds, 3);

    // Tamper the published after-totals of one view in the last link.
    let mut forged = chain.clone();
    let Certificate::Maintenance(m) = forged.last_mut().unwrap() else {
        panic!("applies emit maintenance certificates");
    };
    m.views[0].totals_after[0] += 1;
    assert!(matches!(
        check_certificate(forged.last().unwrap()),
        Err(CertError::DeltaAccountingMismatch { .. })
    ));

    // Break the hash link instead: each certificate is internally consistent,
    // only the chain check can see the forgery.
    let mut forged = chain.clone();
    let Certificate::Maintenance(m) = &mut forged[2] else {
        panic!("applies emit maintenance certificates");
    };
    m.parent_hash ^= 1;
    check_certificate(&forged[2]).unwrap();
    assert!(matches!(
        check_chain(&forged),
        Err(CertError::ParentHashMismatch { .. })
    ));

    // Dropping the execute root is rejected too: accounting needs an anchor.
    assert!(matches!(
        check_chain(chain.iter().skip(1)),
        Err(CertError::ChainRootNotExecute)
    ));
}

/// The wire format is a closed witness: unknown fields and future versions
/// are rejected at the trust boundary, not silently ignored.
#[test]
fn wire_format_is_closed() {
    let ds = datagen::all_datasets(Scale::small()).swap_remove(2); // Yelp
    let prepared = engine_for(&ds, EngineConfig::default())
        .prepare(&workload(&ds))
        .unwrap();
    let (_, cert) = prepared.execute_certified(&DynamicRegistry::new()).unwrap();
    let json = to_json(&cert);

    let smuggled = json.replacen("{\"kind\"", "{\"zzz\":0,\"kind\"", 1);
    assert!(matches!(
        parse_certificate(&smuggled),
        Err(CertError::Malformed(_))
    ));

    let future = json.replacen("\"version\":2", "\"version\":3", 1);
    assert_ne!(future, json, "the emitted version must be the spoken one");
    let parsed = parse_certificate(&future).unwrap();
    assert!(matches!(
        check_certificate(&parsed),
        Err(CertError::UnsupportedVersion { found: 3 })
    ));
}

/// One transaction, one certificate: a commit spanning several relations
/// emits a single maintenance certificate accounting for *every* changed
/// relation, and the chain including it verifies before and after the
/// canonical-JSON round trip.
#[test]
fn one_certificate_per_transaction_accounts_every_relation() {
    use lmfao::datagen::{transaction_stream, txn_relations};

    let dynamics = DynamicRegistry::new();
    let ds = datagen::all_datasets(Scale::small()).swap_remove(1); // Favorita
    let mut live = engine_for(&ds, EngineConfig::default())
        .prepare(&workload(&ds))
        .unwrap()
        .into_serving(&dynamics)
        .unwrap();
    let mut chain: Vec<Certificate> = vec![(**live.snapshot().certificate()).clone()];

    let relations = txn_relations(&ds.name);
    let txns = transaction_stream(&ds, &relations, &UpdateMix::balanced(4).seed(13));
    let mut multi = 0;
    for txn in &txns {
        let spanned = txn.num_relations();
        live.commit(txn.clone(), &dynamics).unwrap();
        let cert = (**live.snapshot().certificate()).clone();
        let Certificate::Maintenance(m) = &cert else {
            panic!("commits emit maintenance certificates");
        };
        // Exactly one certificate for the whole transaction, with one
        // cardinality account per relation it touched.
        assert_eq!(m.relations.len(), spanned);
        assert_eq!(m.txn, live.snapshot().txn_id());
        if spanned >= 2 {
            multi += 1;
        }
        chain.push(cert);
    }
    assert!(multi > 0, "the stream must span multiple relations");
    assert_eq!(chain.len(), txns.len() + 1);

    let summary = check_chain(&chain).unwrap();
    assert_eq!(summary.final_generation, txns.len() as u64);
    let rehydrated: Vec<Certificate> = chain
        .iter()
        .map(|c| parse_certificate(&to_json(c)).unwrap())
        .collect();
    assert_eq!(check_chain(&rehydrated).unwrap(), summary);
}
