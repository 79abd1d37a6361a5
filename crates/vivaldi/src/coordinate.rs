//! Euclidean coordinates with an optional height component.
//!
//! The metric space is measured in **milliseconds**: the distance between two
//! coordinates is the predicted round-trip latency between the corresponding
//! hosts. The paper uses a pure three-dimensional Euclidean space; the
//! height-vector variant of Dabek et al. (where the distance between nodes
//! `i` and `j` is `‖x_i − x_j‖ + h_i + h_j`, the heights capturing each
//! node's access-link latency) is supported because downstream users of the
//! library may want it, but all reproduced experiments run with zero heights.
//!
//! # Representation
//!
//! A coordinate stores its components **inline** in a fixed-capacity
//! `[f64; MAX_DIMS]` array plus an active length, so the entire per-probe
//! numeric path — differences, unit vectors, spring displacements, centroids
//! — runs without touching the heap. Cloning a coordinate is a `memcpy`.
//! Spaces with more than [`MAX_DIMS`] dimensions are rejected at
//! construction; raise the constant (one line) and rebuild if a workload
//! ever needs more.

use std::borrow::Borrow;

use crate::error::CoordinateError;

/// Minimum height a coordinate may take (milliseconds). Heights never go
/// negative; a small positive floor keeps the spring dynamics well-behaved.
pub const MIN_HEIGHT: f64 = 0.0;

/// Maximum number of Euclidean dimensions a [`Coordinate`] can hold. The
/// paper runs in 2–5 dimensions; eight leaves generous headroom while
/// keeping a coordinate at 80 inline bytes.
pub const MAX_DIMS: usize = 8;

/// A point in the latency space: a Euclidean component of fixed dimension
/// plus a non-negative height.
///
/// # Examples
///
/// ```
/// use nc_vivaldi::Coordinate;
///
/// let a = Coordinate::new(vec![3.0, 4.0, 0.0]).unwrap();
/// let b = Coordinate::origin(3);
/// assert_eq!(a.distance(&b), 5.0);
/// ```
#[derive(Clone)]
pub struct Coordinate {
    components: [f64; MAX_DIMS],
    len: usize,
    height: f64,
}

// Equality over the *active* components only; inactive lanes are
// representation padding, not value.
impl PartialEq for Coordinate {
    fn eq(&self, other: &Self) -> bool {
        self.components() == other.components() && self.height == other.height
    }
}

impl std::fmt::Debug for Coordinate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinate")
            .field("components", &self.components())
            .field("height", &self.height)
            .finish()
    }
}

impl Coordinate {
    /// Builds a coordinate from already-validated parts. Internal: every
    /// public constructor funnels through the invariant checks instead.
    pub(crate) fn from_parts(components: [f64; MAX_DIMS], len: usize, height: f64) -> Self {
        debug_assert!((1..=MAX_DIMS).contains(&len));
        Coordinate {
            components,
            len,
            height,
        }
    }

    /// Creates a coordinate from Euclidean components with zero height.
    ///
    /// Accepts anything slice-like (`Vec<f64>`, `[f64; N]`, `&[f64]`), so
    /// existing `Coordinate::new(vec![..])` callers keep working while new
    /// code can pass arrays without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`CoordinateError::Dimension`] when `components` is empty,
    /// [`CoordinateError::TooManyDimensions`] when it exceeds [`MAX_DIMS`]
    /// and [`CoordinateError::NotFinite`] when any component is not finite.
    pub fn new<C: AsRef<[f64]>>(components: C) -> Result<Self, CoordinateError> {
        Self::with_height(components, 0.0)
    }

    /// Creates a coordinate with an explicit height (milliseconds).
    ///
    /// # Errors
    ///
    /// Returns [`CoordinateError::Dimension`] when `components` is empty,
    /// [`CoordinateError::TooManyDimensions`] when it exceeds [`MAX_DIMS`],
    /// [`CoordinateError::NotFinite`] when any value is not finite, and
    /// [`CoordinateError::NegativeHeight`] when `height < 0`.
    pub fn with_height<C: AsRef<[f64]>>(
        components: C,
        height: f64,
    ) -> Result<Self, CoordinateError> {
        let source = components.as_ref();
        if source.is_empty() {
            return Err(CoordinateError::Dimension);
        }
        if source.len() > MAX_DIMS {
            return Err(CoordinateError::TooManyDimensions {
                requested: source.len(),
            });
        }
        if source.iter().any(|c| !c.is_finite()) || !height.is_finite() {
            return Err(CoordinateError::NotFinite);
        }
        if height < 0.0 {
            return Err(CoordinateError::NegativeHeight);
        }
        let mut inline = [0.0; MAX_DIMS];
        inline[..source.len()].copy_from_slice(source);
        Ok(Coordinate::from_parts(inline, source.len(), height))
    }

    /// The origin of a `dimensions`-dimensional space with zero height.
    ///
    /// # Panics
    ///
    /// Panics if `dimensions == 0` (a zero-dimensional latency space is
    /// meaningless and always indicates a configuration bug) or if
    /// `dimensions > MAX_DIMS`.
    pub fn origin(dimensions: usize) -> Self {
        assert!(
            dimensions > 0,
            "coordinate space must have at least one dimension"
        );
        assert!(
            dimensions <= MAX_DIMS,
            "coordinate space limited to {MAX_DIMS} dimensions, requested {dimensions}"
        );
        Coordinate::from_parts([0.0; MAX_DIMS], dimensions, 0.0)
    }

    /// The Euclidean components.
    pub fn components(&self) -> &[f64] {
        &self.components[..self.len]
    }

    /// The height component (milliseconds).
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Number of Euclidean dimensions.
    pub fn dimensions(&self) -> usize {
        self.len
    }

    /// Predicted round-trip latency to `other`:
    /// `‖self − other‖ + height_self + height_other`.
    ///
    /// With zero heights this is the plain Euclidean distance the paper uses.
    ///
    /// # Panics
    ///
    /// Panics when the two coordinates have different dimensionality; mixing
    /// spaces is always a programming error.
    pub fn distance(&self, other: &Coordinate) -> f64 {
        self.distance_to_parts(other.components(), other.height)
    }

    /// [`distance`](Coordinate::distance) to a coordinate given as its
    /// parts, for stores that keep coordinates packed rather than as
    /// `Coordinate`s. The one definition of the distance: `distance`
    /// delegates here, so both give the same bits for the same point.
    ///
    /// # Panics
    ///
    /// Panics when `components` does not have this coordinate's
    /// dimensionality.
    #[inline]
    pub fn distance_to_parts(&self, components: &[f64], height: f64) -> f64 {
        assert_eq!(
            self.dimensions(),
            components.len(),
            "coordinates must share a dimensionality"
        );
        let euclid: f64 = self
            .components()
            .iter()
            .zip(components.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        euclid + self.height + height
    }

    /// Euclidean magnitude of the vector part plus the height. The magnitude
    /// of a coordinate difference is the predicted latency.
    pub fn magnitude(&self) -> f64 {
        self.euclidean_magnitude() + self.height
    }

    /// Magnitude of only the Euclidean part, ignoring the height.
    pub fn euclidean_magnitude(&self) -> f64 {
        self.components().iter().map(|c| c * c).sum::<f64>().sqrt()
    }

    /// Vector difference `self − other`. Heights add, following the
    /// height-vector algebra of Dabek et al. (the "difference" of two
    /// coordinates is the displacement whose magnitude is the predicted
    /// latency).
    ///
    /// # Panics
    ///
    /// Panics when dimensionalities differ.
    pub fn sub(&self, other: &Coordinate) -> Coordinate {
        assert_eq!(self.dimensions(), other.dimensions());
        let mut out = self.clone();
        for (a, b) in out.components[..out.len]
            .iter_mut()
            .zip(other.components().iter())
        {
            *a -= b;
        }
        out.height = self.height + other.height;
        out
    }

    /// Vector sum `self + other`. Heights add.
    ///
    /// # Panics
    ///
    /// Panics when dimensionalities differ.
    pub fn add(&self, other: &Coordinate) -> Coordinate {
        assert_eq!(self.dimensions(), other.dimensions());
        let mut out = self.clone();
        for (a, b) in out.components[..out.len]
            .iter_mut()
            .zip(other.components().iter())
        {
            *a += b;
        }
        out.height = (self.height + other.height).max(MIN_HEIGHT);
        out
    }

    /// Scales both the Euclidean part and the height by `factor`.
    pub fn scale(&self, factor: f64) -> Coordinate {
        let mut out = self.clone();
        out.scale_in_place(factor);
        out
    }

    /// Scales this coordinate in place — the hot-path form of
    /// [`scale`](Coordinate::scale).
    pub fn scale_in_place(&mut self, factor: f64) {
        for c in self.components[..self.len].iter_mut() {
            *c *= factor;
        }
        self.height *= factor;
    }

    /// Applies a displacement vector to this coordinate: the Euclidean parts
    /// add and the height adds but is clamped to remain non-negative. This is
    /// the "move along the spring force" step of the Vivaldi update.
    pub fn displaced_by(&self, displacement: &Coordinate) -> Coordinate {
        let mut out = self.clone();
        out.displace_by(displacement);
        out
    }

    /// In-place form of [`displaced_by`](Coordinate::displaced_by) — moves
    /// this coordinate along `displacement` without any temporary.
    pub fn displace_by(&mut self, displacement: &Coordinate) {
        assert_eq!(self.dimensions(), displacement.dimensions());
        for (a, b) in self.components[..self.len]
            .iter_mut()
            .zip(displacement.components().iter())
        {
            *a += b;
        }
        self.height = (self.height + displacement.height).max(MIN_HEIGHT);
    }

    /// Unit vector pointing from `other` toward `self` (zero height).
    /// Returns `None` when the two Euclidean positions coincide; the caller
    /// must then pick an arbitrary direction (Vivaldi uses a random one so
    /// that co-located nodes can separate).
    pub fn unit_vector_from(&self, other: &Coordinate) -> Option<Coordinate> {
        let mut diff = [0.0; MAX_DIMS];
        let len = self.len.min(other.len);
        for (d, (a, b)) in diff[..len]
            .iter_mut()
            .zip(self.components().iter().zip(other.components().iter()))
        {
            *d = a - b;
        }
        let norm: f64 = diff[..len].iter().map(|c| c * c).sum::<f64>().sqrt();
        if norm <= f64::EPSILON {
            return None;
        }
        for d in diff[..len].iter_mut() {
            *d /= norm;
        }
        Some(Coordinate::from_parts(diff, len, 0.0))
    }

    /// Centroid of a non-empty set of coordinates: the component-wise mean of
    /// the Euclidean parts and the mean of the heights. Used by the RELATIVE,
    /// ENERGY and APPLICATION/CENTROID heuristics to summarise a window of
    /// recent system coordinates (§V-B, §V-G).
    ///
    /// Returns `None` for an empty slice.
    pub fn centroid(coords: &[Coordinate]) -> Option<Coordinate> {
        Self::centroid_iter(coords.iter())
    }

    /// Centroid over any iterator of coordinates, borrowed or owned, in
    /// iteration order. The summation order matches
    /// [`centroid`](Coordinate::centroid), so ring buffers can be averaged
    /// without first collecting them into a `Vec`, and coordinates rebuilt
    /// one at a time from a packed store without keeping them.
    ///
    /// Returns `None` for an empty iterator.
    pub fn centroid_iter<I>(coords: I) -> Option<Coordinate>
    where
        I: IntoIterator,
        I::Item: Borrow<Coordinate>,
    {
        let mut iter = coords.into_iter();
        let first = iter.next()?;
        let dims = first.borrow().dimensions();
        let mut acc = [0.0; MAX_DIMS];
        let mut height = 0.0;
        let mut count = 0usize;
        for c in std::iter::once(first).chain(iter) {
            let c = c.borrow();
            assert_eq!(c.dimensions(), dims, "centroid over mixed dimensionalities");
            for (a, b) in acc[..dims].iter_mut().zip(c.components().iter()) {
                *a += b;
            }
            height += c.height;
            count += 1;
        }
        let n = count as f64;
        for a in acc[..dims].iter_mut() {
            *a /= n;
        }
        Some(Coordinate::from_parts(
            acc,
            dims,
            (height / n).max(MIN_HEIGHT),
        ))
    }

    /// Returns the Euclidean components as a freshly allocated `Vec<f64>`.
    /// The height is **not** included; read it separately through
    /// [`Coordinate::height`] when it matters.
    pub fn to_vec(&self) -> Vec<f64> {
        self.components().to_vec()
    }
}

impl std::fmt::Display for Coordinate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.components().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c:.2}")?;
        }
        if self.height > 0.0 {
            write!(f, "; h={:.2}", self.height)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_empty_nonfinite_and_oversized() {
        assert_eq!(
            Coordinate::new(Vec::<f64>::new()),
            Err(CoordinateError::Dimension)
        );
        assert_eq!(
            Coordinate::new(vec![f64::NAN]),
            Err(CoordinateError::NotFinite)
        );
        assert_eq!(
            Coordinate::with_height(vec![1.0], f64::INFINITY),
            Err(CoordinateError::NotFinite)
        );
        assert_eq!(
            Coordinate::with_height(vec![1.0], -1.0),
            Err(CoordinateError::NegativeHeight)
        );
        assert_eq!(
            Coordinate::new(vec![1.0; MAX_DIMS + 1]),
            Err(CoordinateError::TooManyDimensions {
                requested: MAX_DIMS + 1
            })
        );
        // The boundary itself is fine.
        assert!(Coordinate::new(vec![1.0; MAX_DIMS]).is_ok());
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn origin_zero_dimensions_panics() {
        let _ = Coordinate::origin(0);
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn origin_oversized_dimensions_panics() {
        let _ = Coordinate::origin(MAX_DIMS + 1);
    }

    #[test]
    fn accepts_arrays_and_slices_without_allocation() {
        let from_array = Coordinate::new([3.0, 4.0]).unwrap();
        let from_vec = Coordinate::new(vec![3.0, 4.0]).unwrap();
        assert_eq!(from_array, from_vec);
        let slice: &[f64] = &[3.0, 4.0];
        assert_eq!(Coordinate::new(slice).unwrap(), from_vec);
    }

    #[test]
    fn distance_is_euclidean_without_heights() {
        let a = Coordinate::new(vec![0.0, 3.0]).unwrap();
        let b = Coordinate::new(vec![4.0, 0.0]).unwrap();
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(b.distance(&a), 5.0);
    }

    #[test]
    fn distance_includes_heights() {
        let a = Coordinate::with_height(vec![0.0, 0.0], 10.0).unwrap();
        let b = Coordinate::with_height(vec![3.0, 4.0], 20.0).unwrap();
        assert_eq!(a.distance(&b), 5.0 + 30.0);
    }

    #[test]
    fn sub_adds_heights() {
        let a = Coordinate::with_height(vec![5.0], 2.0).unwrap();
        let b = Coordinate::with_height(vec![1.0], 3.0).unwrap();
        let d = a.sub(&b);
        assert_eq!(d.components(), &[4.0]);
        assert_eq!(d.height(), 5.0);
        assert_eq!(d.magnitude(), 9.0);
    }

    #[test]
    fn unit_vector_has_unit_norm() {
        let a = Coordinate::new(vec![3.0, 4.0]).unwrap();
        let b = Coordinate::origin(2);
        let u = a.unit_vector_from(&b).unwrap();
        assert!((u.euclidean_magnitude() - 1.0).abs() < 1e-12);
        assert!((u.components()[0] - 0.6).abs() < 1e-12);
        assert!((u.components()[1] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn unit_vector_of_coincident_points_is_none() {
        let a = Coordinate::origin(3);
        let b = Coordinate::origin(3);
        assert!(a.unit_vector_from(&b).is_none());
    }

    #[test]
    fn in_place_ops_match_by_value_ops() {
        let a = Coordinate::with_height(vec![1.0, -2.0, 3.0], 1.5).unwrap();
        let d = Coordinate::with_height(vec![0.5, 0.25, -4.0], 0.0).unwrap();
        let by_value = a.displaced_by(&d);
        let mut in_place = a.clone();
        in_place.displace_by(&d);
        assert_eq!(by_value, in_place);

        let scaled = a.scale(3.25);
        let mut scaled_in_place = a.clone();
        scaled_in_place.scale_in_place(3.25);
        assert_eq!(scaled, scaled_in_place);
    }

    #[test]
    fn displacement_clamps_height() {
        let a = Coordinate::with_height(vec![0.0], 1.0).unwrap();
        let mut negative_height_displacement = Coordinate::new(vec![1.0]).unwrap();
        negative_height_displacement.height = -5.0;
        let moved = a.displaced_by(&negative_height_displacement);
        assert_eq!(moved.height(), MIN_HEIGHT);
        assert_eq!(moved.components(), &[1.0]);
    }

    #[test]
    fn centroid_of_empty_is_none() {
        assert!(Coordinate::centroid(&[]).is_none());
    }

    #[test]
    fn centroid_is_componentwise_mean() {
        let coords = vec![
            Coordinate::new(vec![0.0, 0.0]).unwrap(),
            Coordinate::new(vec![2.0, 4.0]).unwrap(),
            Coordinate::new(vec![4.0, 2.0]).unwrap(),
        ];
        let c = Coordinate::centroid(&coords).unwrap();
        assert_eq!(c.components(), &[2.0, 2.0]);
        let by_iter = Coordinate::centroid_iter(coords.iter()).unwrap();
        assert_eq!(c, by_iter);
    }

    #[test]
    fn display_is_nonempty() {
        let c = Coordinate::with_height(vec![1.0, 2.0], 3.0).unwrap();
        let s = format!("{c}");
        assert!(s.contains("1.00"));
        assert!(s.contains("h=3.00"));
    }

    fn coord_strategy(dim: usize) -> impl Strategy<Value = Coordinate> {
        proptest::collection::vec(-1000.0f64..1000.0, dim)
            .prop_map(|v| Coordinate::new(v).expect("finite components"))
    }

    /// A coordinate of `dims` lanes drawn from `lanes`, with about one lane
    /// in eight a negative zero; `height_word` picks a zero, negative-zero
    /// or positive height.
    fn drawn(dims: usize, lanes: &[f64], height_word: u8) -> Coordinate {
        let components: Vec<f64> = lanes
            .iter()
            .take(dims)
            .map(|&x| if x.abs() < 125.0 { -0.0 } else { x })
            .collect();
        let height = match height_word % 3 {
            0 => 0.0,
            1 => -0.0,
            _ => f64::from(height_word) / 7.0,
        };
        Coordinate::with_height(components, height).expect("valid")
    }

    proptest! {
        /// `distance_to_parts` is `distance`, and both are the documented
        /// sum — squares in lane order, the square root, then the two
        /// heights — to the bit.
        #[test]
        fn distance_to_parts_is_distance_bit_for_bit(
            dims in 1usize..=MAX_DIMS,
            lanes in proptest::collection::vec(-1000.0f64..1000.0, 2 * MAX_DIMS),
            heights in proptest::collection::vec(0u8..255, 2usize),
        ) {
            let a = drawn(dims, &lanes, heights[0]);
            let b = drawn(dims, &lanes[MAX_DIMS..], heights[1]);
            let mut squares = 0.0;
            for (x, y) in a.components().iter().zip(b.components()) {
                squares += (x - y) * (x - y);
            }
            let expected = squares.sqrt() + a.height() + b.height();
            let by_parts = a.distance_to_parts(b.components(), b.height());
            prop_assert_eq!(by_parts.to_bits(), expected.to_bits());
            prop_assert_eq!(a.distance(&b).to_bits(), by_parts.to_bits());
        }

        #[test]
        fn distance_is_symmetric(a in coord_strategy(3), b in coord_strategy(3)) {
            prop_assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-9);
        }

        #[test]
        fn distance_is_nonnegative_and_zero_on_self(a in coord_strategy(3)) {
            prop_assert!(a.distance(&a).abs() < 1e-9);
            prop_assert!(a.distance(&Coordinate::origin(3)) >= 0.0);
        }

        #[test]
        fn triangle_inequality(a in coord_strategy(3), b in coord_strategy(3), c in coord_strategy(3)) {
            // Pure Euclidean coordinates obey the triangle inequality — the
            // whole point of an embedding is that estimates are metric even
            // when real Internet latencies are not.
            prop_assert!(a.distance(&c) <= a.distance(&b) + b.distance(&c) + 1e-9);
        }

        #[test]
        fn scale_scales_magnitude(a in coord_strategy(3), k in 0.0f64..10.0) {
            let scaled = a.scale(k);
            prop_assert!((scaled.euclidean_magnitude() - k * a.euclidean_magnitude()).abs() < 1e-6);
        }

        #[test]
        fn sub_then_magnitude_equals_distance(a in coord_strategy(3), b in coord_strategy(3)) {
            prop_assert!((a.sub(&b).magnitude() - a.distance(&b)).abs() < 1e-9);
        }

        #[test]
        fn centroid_lies_within_bounding_box(
            coords in proptest::collection::vec(coord_strategy(2), 1..20)
        ) {
            let c = Coordinate::centroid(&coords).unwrap();
            for dim in 0..2 {
                let min = coords.iter().map(|p| p.components()[dim]).fold(f64::INFINITY, f64::min);
                let max = coords.iter().map(|p| p.components()[dim]).fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(c.components()[dim] >= min - 1e-9);
                prop_assert!(c.components()[dim] <= max + 1e-9);
            }
        }
    }
}
