//! Drives the `etsqp-cli` binary end to end through a pipe: generate a
//! dataset, query it, persist to a TsFile, reload, and re-query.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};

/// A per-test scratch directory, removed on drop. The path embeds the
/// process id and a counter so concurrent `cargo test` invocations (and
/// the tests within one run) never collide on a shared fixed path.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "etsqp_cli_smoke_{tag}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn run_cli(script: &str, args: &[&str]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_etsqp-cli"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn etsqp-cli");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .expect("write script");
    let out = child.wait_with_output().expect("cli exit");
    assert!(out.status.success(), "cli failed: {:?}", out);
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn generate_query_save_reload() {
    let dir = TempDir::new("save_reload");
    let file = dir.file("cli_smoke.etsqp");
    let file_str = file.to_str().unwrap();

    let script = format!(
        ".gen atm 5000\n\
         .series\n\
         SELECT COUNT(atm_temperature) FROM atm_temperature\n\
         .save {file_str}\n\
         .quit\n"
    );
    let out = run_cli(&script, &[]);
    assert!(out.contains("generated Atmosphere (5000 rows"), "{out}");
    assert!(out.contains("atm_temperature: 5000 points"), "{out}");
    assert!(out.contains("5000"), "count row missing: {out}");
    assert!(out.contains("saved"), "{out}");

    // Reload via the CLI argument and query again.
    let out = run_cli(
        "SELECT COUNT(atm_humidity) FROM atm_humidity\n.quit\n",
        &[file_str],
    );
    assert!(out.contains("loaded"), "{out}");
    assert!(out.contains("5000"), "{out}");
}

#[test]
fn errors_do_not_kill_the_shell() {
    let script = ".gen atm 1000\n\
                  SELECT FROM nonsense(\n\
                  SELECT SUM(missing) FROM missing\n\
                  .bogus\n\
                  SELECT COUNT(atm_pressure) FROM atm_pressure\n\
                  .quit\n";
    let out = run_cli(script, &[]);
    // The final valid query must still have run.
    assert!(out.contains("1000"), "{out}");
}

#[test]
fn config_switches_apply() {
    let script = ".gen sine 2000\n\
                  .config threads 1 prune off vectorized off\n\
                  SELECT SUM(sine_sine0) FROM sine_sine0\n\
                  .config prune on vectorized on\n\
                  SELECT SUM(sine_sine0) FROM sine_sine0\n\
                  .quit\n";
    let out = run_cli(script, &[]);
    assert!(
        out.contains("threads=1 prune=false vectorized=false"),
        "{out}"
    );
    assert!(
        out.contains("threads=1 prune=true vectorized=true"),
        "{out}"
    );
    // Both engine configurations produce the same SUM line twice.
    let sums: Vec<&str> = out
        .lines()
        .filter(|l| {
            l.starts_with("SUM(")
                || l.chars()
                    .next()
                    .is_some_and(|c| c == '-' || c.is_ascii_digit())
        })
        .collect();
    assert!(sums.len() >= 2, "{out}");
}
