//! Invalid compile-option values are refused the same way on every
//! surface: the `roccc` command line exits non-zero naming the flag, the
//! serve daemon answers a malformed-request error naming the key, and a
//! pipeline-spec `stage` override fails at its line.

use roccc_suite::serve::{start, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::Command;

const BAD: &[(&str, &str)] = &[
    ("period", "nan"),
    ("period", "inf"),
    ("period", "0"),
    ("period", "-1"),
    ("unroll", "banana"),
    ("stripmine", "wide"),
    ("pipeline-ii", "soon"),
    ("verify-families", "Q"),
    ("verify-families", "S,,E"),
];

fn kernel() -> std::path::PathBuf {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("option_validation.c");
    std::fs::write(
        &path,
        "void acc(int a, int b, int* q) { *q = a * 3 + b; }\n",
    )
    .unwrap();
    path
}

#[test]
fn cli_refuses_invalid_values() {
    let input = kernel();
    for (key, value) in BAD {
        let out = Command::new(env!("CARGO_BIN_EXE_roccc"))
            .arg(&input)
            .args(["--function", "acc", &format!("--{key}"), value])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "--{key} {value} was accepted");
        assert!(out.stdout.is_empty(), "--{key} {value} printed output");
        assert!(stderr.starts_with(&format!("--{key} ")), "{stderr}");
    }
}

#[test]
fn stage_overrides_refuse_invalid_values() {
    let input = kernel();
    let spec = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("option_validation.spec");
    for (key, value) in BAD {
        std::fs::write(&spec, format!("pipeline acc\nstage acc {key}={value}\n")).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_roccc"))
            .arg(&input)
            .arg("--pipeline")
            .arg(&spec)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{key}={value} was accepted");
        assert!(
            stderr.contains(&format!("line 2: stage `acc`: option `{key}={value}`")),
            "{stderr}"
        );
    }
}

#[test]
fn served_requests_refuse_invalid_values() {
    let handle = start(ServerConfig::default()).expect("server starts");
    for (key, value) in BAD {
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        write!(
            stream,
            "compile\nfunction acc\n{key} {value}\nsource void acc(int a, int* q) {{ *q = a; }}\nend\n"
        )
        .unwrap();
        let mut reader = BufReader::new(stream);
        let mut header = String::new();
        reader.read_line(&mut header).unwrap();
        let mut body = String::new();
        reader.read_to_string(&mut body).unwrap();
        assert!(header.starts_with("err "), "{key} {value}: {header}{body}");
        assert!(
            body.contains(&format!("malformed protocol data: {key} ")),
            "{key} {value}: {body}"
        );
    }
    handle.shutdown();
}
