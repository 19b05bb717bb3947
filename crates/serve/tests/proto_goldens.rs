//! Wire-format goldens: the serve protocol's frames are byte-stable.
//!
//! Field order, casing and number formatting are part of the protocol
//! — a daemon and client from different builds must interoperate, and
//! the spool's `job.json`/`state.json` must stay readable across
//! versions. Every assertion here compares full serialised frames
//! against literal strings; a diff is a protocol change and must be
//! deliberate.

use meek_serve::json::Json;
use meek_serve::proto::{
    fuzz_defaults, CampaignJob, Channel, DifftestJob, FuzzSettings, JobSpec, JobState, JobStatus,
    Request, FUZZ_CHUNK,
};
use meek_serve::spool::{read_state, write_state, JobProgress, Spool};
use std::collections::BTreeMap;

fn round_trip_spec(spec: &JobSpec) -> JobSpec {
    JobSpec::from_json(&Json::parse(&spec.to_json()).unwrap()).unwrap()
}

#[test]
fn campaign_spec_golden() {
    let spec = JobSpec::Campaign(CampaignJob {
        suite: "specint".into(),
        faults: 100,
        shard_faults: 25,
        insts_per_fault: 4000,
        seed: 0xBEEF,
        little: 4,
        recover: true,
        trace: true,
        sample_stride: 64,
    });
    assert_eq!(
        spec.to_json(),
        r#"{"kind":"campaign","suite":"specint","faults":100,"shard_faults":25,"insts_per_fault":4000,"seed":48879,"little":4,"recover":true,"trace":true,"sample_stride":64}"#
    );
    assert_eq!(round_trip_spec(&spec), spec);
}

#[test]
fn difftest_spec_golden() {
    let spec = JobSpec::Difftest(DifftestJob {
        suite: "progs".into(),
        cases: 200,
        seed: u64::MAX,
        faults: 3,
        seg_len: 192,
        static_len: 220,
        little: 4,
        recover: false,
        batch: 16,
    });
    assert_eq!(
        spec.to_json(),
        r#"{"kind":"difftest","suite":"progs","cases":200,"seed":18446744073709551615,"faults":3,"seg_len":192,"static_len":220,"little":4,"recover":false,"batch":16}"#
    );
    assert_eq!(round_trip_spec(&spec), spec, "u64::MAX seed survives the round trip");
    // A pre-`suite` frame (no `suite` field) still parses, defaulting
    // to the fuzz case source — old clients keep working.
    let sparse = Json::parse(r#"{"kind":"difftest","cases":8}"#).unwrap();
    let JobSpec::Difftest(job) = JobSpec::from_json(&sparse).unwrap() else { panic!("kind") };
    assert_eq!(job.suite, "fuzz");
    assert_eq!(job.cases, 8);
}

#[test]
fn fuzz_spec_golden() {
    let settings = FuzzSettings {
        iters: 512,
        seed: 7,
        static_len: 220,
        faults_per_case: 2,
        n_little: 4,
        guided: true,
        recover: false,
        corpus_cap: 256,
        ..fuzz_defaults()
    };
    let spec = JobSpec::Fuzz { settings, chunk: 32 };
    assert_eq!(
        spec.to_json(),
        r#"{"kind":"fuzz","iters":512,"seed":7,"static_len":220,"faults_per_case":2,"little":4,"guided":true,"recover":false,"corpus_cap":256,"chunk":32}"#
    );
    assert_eq!(round_trip_spec(&spec), spec);
}

#[test]
fn job_status_golden() {
    let mut counters = BTreeMap::new();
    counters.insert("detected".to_string(), 19);
    counters.insert("faults".to_string(), 25);
    let status = JobStatus {
        id: 3,
        kind: "campaign".into(),
        state: JobState::Running,
        priority: -2,
        units_total: 8,
        units_done: 5,
        counters,
    };
    assert_eq!(
        status.to_json(),
        r#"{"id":3,"kind":"campaign","state":"running","priority":-2,"units_total":8,"units_done":5,"counters":{"detected":19,"faults":25},"error":null}"#
    );
    let back = JobStatus::from_json(&Json::parse(&status.to_json()).unwrap()).unwrap();
    assert_eq!(back, status);
}

#[test]
fn failed_status_carries_its_error() {
    let status = JobStatus {
        id: 9,
        kind: "fuzz".into(),
        state: JobState::Failed("chunk 2: disk full".into()),
        priority: 0,
        units_total: 4,
        units_done: 2,
        counters: BTreeMap::new(),
    };
    assert_eq!(
        status.to_json(),
        r#"{"id":9,"kind":"fuzz","state":"failed","priority":0,"units_total":4,"units_done":2,"counters":{},"error":"chunk 2: disk full"}"#
    );
    let back = JobStatus::from_json(&Json::parse(&status.to_json()).unwrap()).unwrap();
    assert_eq!(back, status);
}

#[test]
fn request_goldens() {
    let cases: Vec<(Request, &str)> = vec![
        (
            Request::Submit {
                spec: JobSpec::Fuzz { settings: fuzz_defaults(), chunk: FUZZ_CHUNK },
                priority: 5,
            },
            r#"{"cmd":"submit","priority":5,"spec":{"kind":"fuzz","iters":64,"seed":0,"static_len":220,"faults_per_case":2,"little":4,"guided":true,"recover":false,"corpus_cap":256,"chunk":16}}"#,
        ),
        (Request::Status { job: None }, r#"{"cmd":"status"}"#),
        (Request::Status { job: Some(4) }, r#"{"cmd":"status","job":4}"#),
        (Request::Cancel { job: 4 }, r#"{"cmd":"cancel","job":4}"#),
        (
            Request::Tail { job: 2, channel: Channel::Trace, from: 4096, follow: true },
            r#"{"cmd":"tail","job":2,"channel":"trace","from":4096,"follow":true}"#,
        ),
        (
            Request::Metrics { follow: false, interval_ms: 1000, prom: false },
            r#"{"cmd":"metrics","follow":false,"interval_ms":1000,"prom":false}"#,
        ),
        (
            Request::Metrics { follow: true, interval_ms: 250, prom: true },
            r#"{"cmd":"metrics","follow":true,"interval_ms":250,"prom":true}"#,
        ),
        (Request::Shutdown, r#"{"cmd":"shutdown"}"#),
    ];
    for (req, golden) in cases {
        assert_eq!(req.to_json(), golden);
        assert_eq!(Request::from_line(golden).unwrap(), req);
    }
    // Sparse pre-interval/prom metrics requests still parse: older
    // clients omit the fields and get the defaults.
    assert_eq!(
        Request::from_line(r#"{"cmd":"metrics","follow":true}"#).unwrap(),
        Request::Metrics { follow: true, interval_ms: 1000, prom: false },
    );
}

#[test]
fn state_json_golden_on_disk() {
    let root = std::env::temp_dir().join(format!("meek-serve-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let spool = Spool::open(&root).unwrap();
    let id = spool.create_job(&JobSpec::Difftest(DifftestJob::default()), 1).unwrap();
    let dir = spool.job_dir(id);
    let mut progress = JobProgress::queued();
    progress.state = JobState::Running;
    progress.units_done = 2;
    progress.units_total = 5;
    progress.offsets.insert("results.jsonl".into(), 333);
    progress.counters.insert("cases".into(), 32);
    write_state(&dir, &progress).unwrap();
    let text = std::fs::read_to_string(dir.join("state.json")).unwrap();
    assert_eq!(
        text,
        "{\"state\":\"running\",\"units_done\":2,\"units_total\":5,\
         \"offsets\":{\"results.jsonl\":333},\"counters\":{\"cases\":32},\"error\":null}\n"
    );
    assert_eq!(read_state(&dir).unwrap(), progress);
    let job_text = std::fs::read_to_string(dir.join("job.json")).unwrap();
    assert_eq!(
        job_text,
        format!(
            "{{\"priority\":1,\"spec\":{}}}\n",
            JobSpec::Difftest(DifftestJob::default()).to_json()
        )
    );
    std::fs::remove_dir_all(&root).unwrap();
}
