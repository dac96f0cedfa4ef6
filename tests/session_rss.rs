//! Bringing a session up costs its static data, not its `mem_size`: the
//! data memory is demand-zero, so a default 64 MiB session adds only the
//! pages it actually writes to the process's resident set.

#![cfg(target_os = "linux")]

use tickc::tickc_core::{Config, Session};

const SRC: &str = r#"
int table[16] = {1, 2, 3, 4};
char *name = "session";
int f(int x) { return table[x & 15] + name[0]; }
"#;

/// Resident set of this process in KiB (`VmRSS`).
fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn eight_default_sessions_do_not_fault_in_their_memories() {
    const SESSIONS: usize = 8;
    let mem_size = Config::default().mem_size;
    assert_eq!(mem_size, 64 << 20, "the test sizes itself on the default");
    // Warm up one-time process state (allocator arenas, lazy statics).
    let mut warm = Session::with_defaults(SRC).expect("compiles");
    assert_eq!(warm.call("f", &[1]).unwrap(), 2 + b's' as u64);

    let before = rss_kib();
    let mut sessions = Vec::new();
    for i in 0..SESSIONS as u64 {
        let mut s = Session::with_defaults(SRC).expect("compiles");
        assert_eq!(
            s.call("f", &[i]).unwrap(),
            [1, 2, 3, 4, 0, 0, 0, 0][i as usize] + b's' as u64
        );
        sessions.push(s);
    }
    let grown_kib = rss_kib().saturating_sub(before);
    // An eager copy of each image's memory would fault in all of it:
    // SESSIONS × 64 MiB. Demand-zero sessions touch a few pages each.
    assert!(
        grown_kib < (mem_size as u64 >> 10),
        "{SESSIONS} sessions grew RSS by {} MiB (each memory is {} MiB)",
        grown_kib >> 10,
        mem_size >> 20
    );
    drop(sessions);
}
