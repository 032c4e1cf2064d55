//! Documentation may quote the syntax, `// detlint::allow(S001, reason)`,
//! without carrying an allow.

/// Put `// detlint::allow(S001, why)` above an unwrap that cannot fail.
pub fn lib_code(v: Option<u32>) -> u32 {
    // detlint::allow(S001, callers always pass Some)
    v.unwrap()
}
