//! Fixture: no-panic violations in a recovery hot path.

fn pump(frames: Option<u64>) -> u64 {
    let n = frames.unwrap();
    let m = frames.expect("frames present");
    if n + m == 0 {
        panic!("empty pump");
    }
    debug_assert!(false, "pump state {n}");
    debug_assert!(n > m, "a condition is fine");
    n
}

fn formatting_is_fine() -> String {
    // Strings and near-miss method names must not trip the rule.
    let s = "call .unwrap() here";
    let _ = Some(1).unwrap_or(2);
    s.to_string()
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_allowed() {
        let v: Option<u32> = Some(1);
        assert_eq!(v.unwrap(), 1);
    }
}
