//! Command-line handling of the `sctc-serve` binary: a malformed argument
//! is a usage error (exit 2) and an address that cannot be bound is a
//! runtime error (exit 1), never a panic and never a server that starts.

use std::net::TcpListener;
use std::process::{Command, Output};

fn serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sctc-serve"))
        .args(args)
        .output()
        .expect("run sctc-serve")
}

fn assert_not_listening(args: &[&str], out: &Output) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("listening on"),
        "{args:?} started a server: {stdout}"
    );
}

#[test]
fn malformed_arguments_exit_2_with_the_usage_line() {
    for args in [
        &["--cache-mb", "x"][..],
        &["--log-every", "-1"],
        &["--deadline-ms"],
        // 2^44 MiB overflows a 64-bit byte count.
        &["--cache-mb", "17592186044416"],
    ] {
        let out = serve(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert_not_listening(args, &out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: sctc-serve"), "{args:?}: {stderr}");
    }
}

#[test]
fn an_address_in_use_exits_1() {
    let taken = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = taken.local_addr().expect("local addr").to_string();
    let args = ["--addr", addr.as_str()];
    let out = serve(&args);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert_not_listening(&args, &out);
}
