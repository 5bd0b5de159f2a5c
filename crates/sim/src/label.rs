//! Task labels and participant sets: the per-task data a [`Workload`]
//! carries besides its payload and dependencies, kept free of per-task
//! heap allocations.
//!
//! A [`Label`] is a static template plus up to four integer arguments,
//! rendered only where text is written out (trace exporters, panic and
//! violation messages). [`Participants`] stores a single device inline and
//! shares a multi-device group behind one reference count, so a builder
//! that issues the same collective group for every layer allocates the
//! group once.
//!
//! [`Workload`]: crate::Workload

use crate::GpuId;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Most arguments one [`Label`] carries.
pub const MAX_LABEL_ARGS: usize = 4;

/// A task label: a `'static` template whose `{}` holes are filled, in
/// order, by up to [`MAX_LABEL_ARGS`] integers.
///
/// `Copy` and heap-free, so a workload's labels cost nothing to build,
/// clone or drop. Build one with the [`label!`](crate::label!) macro, which
/// checks at compile time that the number of holes equals the number of
/// arguments, or from a literal without holes via `From<&'static str>`.
///
/// `Display` renders the text; `Debug` renders it as a quoted string, the
/// way a `String` label printed. Equality is structural (same template,
/// same arguments); comparing against a `str` compares the rendered text.
///
/// ```rust
/// use olab_sim::{label, Label};
///
/// let l = label!("st{}.L{}.f.k{}.gpu{}", 0, 3, 2, 1);
/// assert_eq!(l.to_string(), "st0.L3.f.k2.gpu1");
/// assert_eq!(l, "st0.L3.f.k2.gpu1");
/// assert_eq!(Label::from("ar.embed"), "ar.embed");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label {
    template: &'static str,
    args: [u32; MAX_LABEL_ARGS],
}

impl Label {
    /// A label from a template and the arguments for its holes. Prefer the
    /// [`label!`](crate::label!) macro, which checks the hole count at
    /// compile time.
    ///
    /// # Panics
    ///
    /// Panics if `args` has more than [`MAX_LABEL_ARGS`] entries.
    #[inline]
    pub fn new(template: &'static str, args: &[u32]) -> Label {
        let mut all = [0; MAX_LABEL_ARGS];
        all[..args.len()].copy_from_slice(args);
        Label {
            template,
            args: all,
        }
    }

    /// Number of `{}` holes in `template`.
    pub const fn holes(template: &str) -> usize {
        let bytes = template.as_bytes();
        let mut count = 0;
        let mut i = 0;
        while i + 1 < bytes.len() {
            if bytes[i] == b'{' && bytes[i + 1] == b'}' {
                count += 1;
                i += 2;
            } else {
                i += 1;
            }
        }
        count
    }

    /// Converts one [`label!`](crate::label!) argument to the stored width.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in a `u32`.
    #[doc(hidden)]
    #[inline]
    pub fn arg<T: TryInto<u32>>(value: T) -> u32 {
        value
            .try_into()
            .ok()
            .expect("label argument does not fit in u32")
    }

    /// Writes the rendered text to `out`.
    fn render(&self, out: &mut impl fmt::Write) -> fmt::Result {
        let mut rest = self.template;
        let mut args = self.args.iter();
        while let Some(at) = rest.find("{}") {
            out.write_str(&rest[..at])?;
            write!(out, "{}", args.next().copied().unwrap_or_default())?;
            rest = &rest[at + 2..];
        }
        out.write_str(rest)
    }
}

impl From<&'static str> for Label {
    /// A literal label. The text must not contain `{}`, which would read
    /// as a hole.
    fn from(text: &'static str) -> Label {
        debug_assert_eq!(Label::holes(text), 0, "literal label {text:?} has a hole");
        Label::new(text, &[])
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f)
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.to_string(), f)
    }
}

impl PartialEq<str> for Label {
    /// Compares the rendered text, without allocating.
    fn eq(&self, other: &str) -> bool {
        /// Consumes the expected text as the label renders.
        struct Expect<'a>(&'a str);
        impl fmt::Write for Expect<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0 = self.0.strip_prefix(s).ok_or(fmt::Error)?;
                Ok(())
            }
        }
        let mut expect = Expect(other);
        self.render(&mut expect).is_ok() && expect.0.is_empty()
    }
}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        *self == **other
    }
}

/// Builds a [`Label`] from a template literal and one integer argument per
/// `{}` hole, checking the count at compile time.
///
/// The template may be any constant `&'static str` expression, such as a
/// literal or a `concat!`. Arguments are any integers that fit in a `u32`.
///
/// ```rust
/// use olab_sim::label;
///
/// let kernel = label!(concat!("st{}.L{}.f", ".k{}.gpu{}"), 0, 3, 2, 1);
/// assert_eq!(kernel, "st0.L3.f.k2.gpu1");
/// assert_eq!(label!("adam"), "adam");
/// ```
///
/// A mismatched count does not compile:
///
/// ```compile_fail
/// let bad = olab_sim::label!("L{}.k{}", 1);
/// ```
#[macro_export]
macro_rules! label {
    ($template:expr $(,)?) => {{
        const TEMPLATE: &str = $template;
        const {
            assert!(
                $crate::Label::holes(TEMPLATE) == 0,
                "label! template has holes but no arguments"
            )
        };
        $crate::Label::new(TEMPLATE, &[])
    }};
    ($template:expr, $($arg:expr),+ $(,)?) => {{
        const TEMPLATE: &str = $template;
        const {
            let args = [$(stringify!($arg)),+].len();
            assert!(
                $crate::Label::holes(TEMPLATE) == args,
                "label! template holes must match the argument count"
            );
            assert!(
                args <= $crate::MAX_LABEL_ARGS,
                "label! takes at most four arguments"
            );
        };
        $crate::Label::new(TEMPLATE, &[$($crate::Label::arg($arg)),+])
    }};
}

/// The devices one task occupies: a single device stored inline, or a
/// group shared by reference count.
///
/// Derefs to `&[GpuId]`. A builder creates one `Many` per collective group
/// and clones it for every collective on that group, which bumps a
/// reference count instead of copying the list. Equality is that of the
/// device slice, whichever variant holds it.
#[derive(Clone)]
pub enum Participants {
    /// One device (kernels, local copies).
    One(GpuId),
    /// Several devices (collectives, point-to-point transfers).
    Many(Arc<[GpuId]>),
}

impl Participants {
    /// Whether the devices are in strictly ascending order (sorted and
    /// free of duplicates).
    pub(crate) fn is_strictly_sorted(&self) -> bool {
        self.windows(2).all(|pair| pair[0] < pair[1])
    }
}

impl Deref for Participants {
    type Target = [GpuId];

    #[inline]
    fn deref(&self) -> &[GpuId] {
        match self {
            Participants::One(gpu) => std::slice::from_ref(gpu),
            Participants::Many(group) => group,
        }
    }
}

impl<'a> IntoIterator for &'a Participants {
    type Item = &'a GpuId;
    type IntoIter = std::slice::Iter<'a, GpuId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<GpuId> for Participants {
    fn from(gpu: GpuId) -> Participants {
        Participants::One(gpu)
    }
}

impl From<Vec<GpuId>> for Participants {
    /// A single device becomes `One`; any other list becomes `Many`.
    fn from(gpus: Vec<GpuId>) -> Participants {
        match gpus[..] {
            [gpu] => Participants::One(gpu),
            _ => Participants::Many(gpus.into()),
        }
    }
}

impl fmt::Debug for Participants {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for Participants {
    fn eq(&self, other: &Participants) -> bool {
        **self == **other
    }
}

impl Eq for Participants {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_fills_holes_in_order() {
        assert_eq!(
            label!("st{}.L{}.f.k{}.gpu{}", 0, 3, 2, 1).to_string(),
            "st0.L3.f.k2.gpu1"
        );
        assert_eq!(
            label!("s{}.m{}.f.c{}k{}", 3u16, 7usize, 0u32, 12u64),
            "s3.m7.f.c0k12"
        );
        assert_eq!(label!("x.f.s{}->s{}.m{}", 0, 1, 4), "x.f.s0->s1.m4");
        assert_eq!(
            label!(concat!("L{}.b", ".k{}.gpu{}"), 23, 9, 3),
            "L23.b.k9.gpu3"
        );
        assert_eq!(label!("{}", u32::MAX), "4294967295");
    }

    #[test]
    fn literal_labels_render_verbatim() {
        let l = Label::from("ar.embed");
        assert_eq!(l.to_string(), "ar.embed");
        assert_eq!(l, label!("ar.embed"));
        assert_eq!(Label::from(""), "");
    }

    #[test]
    fn label_str_comparison_is_exact() {
        let l = label!("L{}.f", 12);
        assert_eq!(l, "L12.f");
        assert_ne!(l, "L12.f.k0");
        assert_ne!(l, "L1");
        assert_ne!(l, "L12.g");
    }

    #[test]
    fn label_debug_quotes_like_a_string() {
        let l = label!("fwd \"L{}\"", 0);
        assert_eq!(format!("{l:?}"), format!("{:?}", "fwd \"L0\""));
    }

    #[test]
    fn label_is_copy_and_small() {
        fn is_copy<T: Copy>() {}
        is_copy::<Label>();
        assert!(std::mem::size_of::<Label>() <= 32);
    }

    #[test]
    fn hole_count_ignores_lone_braces() {
        assert_eq!(Label::holes("a{}b{}"), 2);
        assert_eq!(Label::holes("{ }{"), 0);
        assert_eq!(Label::holes("{}}"), 1);
    }

    #[test]
    #[should_panic(expected = "does not fit in u32")]
    fn oversized_label_arguments_panic() {
        let _ = label!("k{}", u64::MAX);
    }

    #[test]
    fn participants_deref_to_the_device_slice() {
        let one = Participants::from(GpuId(2));
        assert_eq!(&*one, &[GpuId(2)]);
        let many = Participants::from(vec![GpuId(0), GpuId(3)]);
        assert!(matches!(many, Participants::Many(_)));
        assert_eq!(many.len(), 2);
        let seen: Vec<GpuId> = (&many).into_iter().copied().collect();
        assert_eq!(seen, vec![GpuId(0), GpuId(3)]);
        assert!(matches!(
            Participants::from(vec![GpuId(1)]),
            Participants::One(GpuId(1))
        ));
    }

    #[test]
    fn participants_compare_by_devices_and_share_on_clone() {
        let group = Participants::from(vec![GpuId(0), GpuId(1)]);
        let copy = group.clone();
        match (&group, &copy) {
            (Participants::Many(a), Participants::Many(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => panic!("a group stays shared"),
        }
        let single = Participants::Many(vec![GpuId(4)].into());
        assert_eq!(single, Participants::One(GpuId(4)));
        assert_eq!(*group, [GpuId(0), GpuId(1)]);
        assert!(group.is_strictly_sorted());
        assert!(!Participants::from(vec![GpuId(1), GpuId(1)]).is_strictly_sorted());
    }
}
