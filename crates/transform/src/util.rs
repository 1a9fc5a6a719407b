//! Shared CFG utilities for transforms.

use lpat_core::Function;

/// Remove blocks unreachable from the entry, fixing φ-nodes.
///
/// Returns whether anything was removed. No-op on declarations.
pub fn remove_unreachable_blocks(f: &mut Function) -> bool {
    if f.is_declaration() {
        return false;
    }
    let n = f.num_blocks();
    let mut reach = vec![false; n];
    let mut work = vec![f.entry()];
    reach[f.entry().index()] = true;
    while let Some(b) = work.pop() {
        for s in f.successors(b) {
            if !reach[s.index()] {
                reach[s.index()] = true;
                work.push(s);
            }
        }
    }
    if reach.iter().all(|&r| r) {
        return false;
    }
    f.retain_blocks(&reach);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpat_asm::parse_module;

    #[test]
    fn removes_unreachable_and_fixes_phis() {
        let mut m = parse_module(
            "t",
            "
define int @f(int %x) {
e:
  br label %live
dead:
  br label %join
live:
  br label %join
join:
  %p = phi int [ 1, %dead ], [ 2, %live ]
  ret int %p
}",
        )
        .unwrap();
        let fid = m.func_by_name("f").unwrap();
        assert!(remove_unreachable_blocks(m.func_mut(fid)));
        m.verify()
            .unwrap_or_else(|e| panic!("{e:?}\n{}", m.display()));
        let f = m.func(fid);
        assert_eq!(f.num_blocks(), 3);
        // The phi lost its dead incoming edge.
        let text = m.display();
        assert!(!text.contains("[ 1,"), "{text}");
        assert!(text.contains("[ 2,"), "{text}");
    }

    #[test]
    fn no_change_when_all_reachable() {
        let mut m = parse_module("t", "define void @f() {\ne:\n  ret void\n}").unwrap();
        let fid = m.func_by_name("f").unwrap();
        assert!(!remove_unreachable_blocks(m.func_mut(fid)));
    }
}
