// A reasoned allow that covers no finding is stale (A000): the finding
// it was written for is gone, so the allow goes too.
pub fn lib_code(v: Option<u32>) -> u32 {
    // detlint::allow(S001, the unwrap this covered was removed)
    v.unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code() {
        // detlint::allow(S001, S001 does not apply inside cfg(test))
        assert_eq!(Some(1).unwrap(), 1);
    }
}
