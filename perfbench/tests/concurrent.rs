//! Two invocations started at once, with the same seed and in the same
//! directory, must not share a tree or an answer log: each gets a run
//! directory of its own, both pass every check, and both remove what they
//! wrote.

use std::path::Path;
use std::process::Command;

#[test]
fn concurrent_invocations_do_not_interfere() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("concurrent-invocations");
    std::fs::create_dir_all(&dir).expect("test directory");
    let children: Vec<_> = [
        "tree-cold-llm",
        "tree-cold-llm",
        "daemon-warm",
        "daemon-warm",
    ]
    .iter()
    .map(|workload| {
        Command::new(env!("CARGO_BIN_EXE_semre-perfbench"))
            .args([
                "--workload",
                workload,
                "--seed",
                "5",
                "--seconds",
                "1",
                "--trace",
                "0",
            ])
            .current_dir(&dir)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("the benchmark starts")
    })
    .collect();
    for child in children {
        let output = child.wait_with_output().expect("the benchmark ends");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success(),
            "{}\n{}",
            stdout,
            String::from_utf8_lossy(&output.stderr)
        );
        let result = stdout.lines().last().unwrap_or_default();
        assert!(result.contains("\"correct\": true, "), "{result}");
        assert!(result.contains("\"failed\": 0, "), "{result}");
    }
    assert!(
        !dir.join(".perfbench-runs").exists(),
        "run directories were left behind"
    );
}
