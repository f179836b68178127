//! Pins what every accepted compile-option spelling means, on each
//! surface that reads options: the `roccc` command line, the serve wire
//! protocol and pipeline-spec `stage` overrides.
//!
//! Each row is (surface, input text, expected `CompileOptions`), the
//! expectation written as an edit of the defaults. The command line is
//! observed end to end: the `roccc` binary runs in client mode against a
//! one-shot listener here, which reads the compile request it sends.

use roccc::proto::{read_request, write_response, Request, Response};
use roccc::{CompileOptions, UnrollStrategy, VerifyLevel};
use std::io::BufReader;
use std::net::TcpListener;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

type Edit = fn(&mut CompileOptions);

/// `roccc` command-line flags (whitespace-separated).
const CLI: &[(&str, Edit)] = &[
    ("", |_| {}),
    ("--period 5.25", |o| o.target_period_ns = 5.25),
    ("--period 10", |o| o.target_period_ns = 10.0),
    ("--unroll full", |o| o.unroll = UnrollStrategy::Full),
    ("--unroll 4", |o| o.unroll = UnrollStrategy::Partial(4)),
    ("--unroll 1", |o| o.unroll = UnrollStrategy::Partial(1)),
    ("--stripmine 4", |o| o.stripmine = Some(4)),
    ("--fuse", |o| o.fuse = true),
    ("--no-opt", |o| o.optimize = false),
    ("--no-narrow", |o| o.narrow = false),
    ("--range-narrow", |o| o.range_narrow = true),
    ("--pipeline-ii auto", |o| o.pipeline_ii = Some(0)),
    ("--pipeline-ii 3", |o| o.pipeline_ii = Some(3)),
    ("--verify", |o| o.verify = VerifyLevel::Warn),
    ("--deny-warnings", |o| o.verify = VerifyLevel::Deny),
    ("--verify --deny-warnings", |o| o.verify = VerifyLevel::Deny),
    ("--deny-warnings --verify", |o| o.verify = VerifyLevel::Deny),
    ("--prove", |o| o.prove = true),
    ("--verify-families S,D,E", |o| {
        o.verify_families = Some("S,D,E".into())
    }),
    ("--verify-families e,w", |o| {
        o.verify_families = Some("e,w".into())
    }),
    ("--emit schedule", |o| o.pipeline_ii = Some(0)),
    ("--emit schedule-json", |o| o.pipeline_ii = Some(0)),
    ("--emit schedule --pipeline-ii 3", |o| {
        o.pipeline_ii = Some(3)
    }),
    ("--emit prove", |o| o.prove = true),
    ("--emit prove-json", |o| o.prove = true),
    (
        "--period 4.2 --unroll 2 --stripmine 8 --no-opt --no-narrow --fuse \
         --range-narrow --pipeline-ii 2 --deny-warnings --prove --verify-families S,E",
        |o| {
            *o = CompileOptions {
                target_period_ns: 4.2,
                unroll: UnrollStrategy::Partial(2),
                stripmine: Some(8),
                optimize: false,
                narrow: false,
                range_narrow: true,
                fuse: true,
                pipeline_ii: Some(2),
                verify: VerifyLevel::Deny,
                prove: true,
                verify_families: Some("S,E".into()),
            }
        },
    ),
];

/// Wire-protocol option lines inside a `compile` request.
const WIRE: &[(&str, Edit)] = &[
    ("period 5.25", |o| o.target_period_ns = 5.25),
    ("period 10", |o| o.target_period_ns = 10.0),
    ("period 7", |_| {}),
    ("unroll full", |o| o.unroll = UnrollStrategy::Full),
    ("unroll 4", |o| o.unroll = UnrollStrategy::Partial(4)),
    ("unroll 1", |o| o.unroll = UnrollStrategy::Partial(1)),
    ("stripmine 4", |o| o.stripmine = Some(4)),
    ("stripmine 0", |o| o.stripmine = Some(0)),
    ("no-opt", |o| o.optimize = false),
    ("no-narrow", |o| o.narrow = false),
    ("fuse", |o| o.fuse = true),
    ("range-narrow", |o| o.range_narrow = true),
    ("prove", |o| o.prove = true),
    ("pipeline-ii auto", |o| o.pipeline_ii = Some(0)),
    ("pipeline-ii 0", |o| o.pipeline_ii = Some(0)),
    ("pipeline-ii 2", |o| o.pipeline_ii = Some(2)),
    ("verify off", |o| o.verify = VerifyLevel::Off),
    ("verify warn", |o| o.verify = VerifyLevel::Warn),
    ("verify deny", |o| o.verify = VerifyLevel::Deny),
    ("verify-families S,D,E", |o| {
        o.verify_families = Some("S,D,E".into())
    }),
    ("verify-families e", |o| {
        o.verify_families = Some("e".into())
    }),
    // A switch line carries no value; one that does is read as the switch.
    ("fuse 1", |o| o.fuse = true),
];

/// Pipeline-spec `stage` overrides (space-separated `key=value` tokens,
/// applied in order onto the defaults).
const STREAM: &[(&str, Edit)] = &[
    ("period=5.25", |o| o.target_period_ns = 5.25),
    ("period=10", |o| o.target_period_ns = 10.0),
    ("unroll=full", |o| o.unroll = UnrollStrategy::Full),
    ("unroll=4", |o| o.unroll = UnrollStrategy::Partial(4)),
    ("unroll=1", |o| o.unroll = UnrollStrategy::Partial(1)),
    ("unroll=4 unroll=keep", |_| {}),
    ("stripmine=4", |o| o.stripmine = Some(4)),
    ("stripmine=4 stripmine=off", |_| {}),
    ("optimize=off", |o| o.optimize = false),
    ("optimize=false", |o| o.optimize = false),
    ("optimize=0", |o| o.optimize = false),
    ("optimize=off optimize=on", |_| {}),
    ("optimize=off optimize=true", |_| {}),
    ("optimize=off optimize=1", |_| {}),
    ("narrow=off", |o| o.narrow = false),
    ("range-narrow=on", |o| o.range_narrow = true),
    ("fuse=on", |o| o.fuse = true),
    ("fuse=true", |o| o.fuse = true),
    ("fuse=1", |o| o.fuse = true),
    ("fuse=on fuse=off", |_| {}),
    ("verify=off", |o| o.verify = VerifyLevel::Off),
    ("verify=warn", |o| o.verify = VerifyLevel::Warn),
    ("verify=deny", |o| o.verify = VerifyLevel::Deny),
];

fn expected(edit: Edit) -> CompileOptions {
    let mut o = CompileOptions::default();
    edit(&mut o);
    o
}

/// Runs `roccc` with `flags` in client mode and returns the options of
/// the compile request it sends.
fn cli_options(flags: &str, input: &std::path::Path) -> CompileOptions {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let mut child = Command::new(env!("CARGO_BIN_EXE_roccc"))
        .arg(input)
        .args(["--function", "acc", "--connect", &addr])
        .args(flags.split_whitespace())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    let stream = loop {
        match listener.accept() {
            Ok((s, _)) => break s,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if let Some(status) = child.try_wait().unwrap() {
                    let out = child.wait_with_output().unwrap();
                    panic!(
                        "`roccc {flags}` exited ({status}) without connecting: {}",
                        String::from_utf8_lossy(&out.stderr)
                    );
                }
                assert!(Instant::now() < deadline, "`roccc {flags}` never connected");
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("accept: {e}"),
        }
    };
    stream.set_nonblocking(false).unwrap();
    let req = read_request(&mut BufReader::new(&stream)).unwrap();
    write_response(
        &mut &stream,
        &Response::Ok {
            payload: Vec::new(),
            cached: false,
        },
    )
    .unwrap();
    assert!(child.wait().unwrap().success(), "`roccc {flags}` failed");
    match req {
        Request::Compile { opts, .. } => opts,
        other => panic!("`roccc {flags}` sent {other:?}"),
    }
}

#[test]
fn cli_spellings() {
    let input = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("option_spellings.c");
    std::fs::write(
        &input,
        "void acc(int a, int b, int* q) { *q = a * 3 + b; }\n",
    )
    .unwrap();
    for &(flags, edit) in CLI {
        assert_eq!(cli_options(flags, &input), expected(edit), "cli `{flags}`");
    }
}

#[test]
fn wire_spellings() {
    for &(line, edit) in WIRE {
        let text = format!("compile\nfunction f\n{line}\nsource void f() {{}}\nend\n");
        match read_request(&mut text.as_bytes()) {
            Ok(Request::Compile { opts, .. }) => {
                assert_eq!(opts, expected(edit), "wire `{line}`")
            }
            other => panic!("wire `{line}`: {other:?}"),
        }
    }
}

#[test]
fn stream_spellings() {
    for &(overrides, edit) in STREAM {
        let spec = roccc_stream::parse_spec(&format!("pipeline a\nstage a {overrides}\n"))
            .unwrap_or_else(|e| panic!("stream `{overrides}`: {e}"));
        let opts = spec.stages[0]
            .apply(&CompileOptions::default())
            .unwrap_or_else(|e| panic!("stream `{overrides}`: {e}"));
        assert_eq!(opts, expected(edit), "stream `{overrides}`");
    }
}
