//! Seeded synthetic datasets matching the paper's experimental data.
//!
//! | Paper dataset | Here | Shape preserved |
//! |---|---|---|
//! | IMDB top-4000 movies, 6 attributes | [`movies`] | cardinality, schema, rating skew |
//! | UCI 3-D road network, 434,874 × (lon, lat, alt) | [`road_network`] | cardinality, the exact attribute domains the paper's SQL uses, spatial clustering |
//! | Airbnb listings | [`listings`] | geo + price + categorical filters |
//!
//! All generators are deterministic in their seed.

use ids_engine::{ColumnBuilder, Table, TableBuilder};
use ids_simclock::rng::SimRng;

/// Domain constants for the road-network table, taken verbatim from the
/// paper's crossfiltering SQL (Section 7).
pub mod road_domain {
    /// Longitude (x) minimum.
    pub const X_MIN: f64 = 8.146;
    /// Longitude (x) maximum.
    pub const X_MAX: f64 = 11.261_636_716_3;
    /// Latitude (y) minimum.
    pub const Y_MIN: f64 = 56.582;
    /// Latitude (y) maximum.
    pub const Y_MAX: f64 = 57.774;
    /// Altitude (z) minimum.
    pub const Z_MIN: f64 = -8.608;
    /// Altitude (z) maximum.
    pub const Z_MAX: f64 = 137.361;
    /// Full cardinality used in the paper.
    pub const ROWS: usize = 434_874;
}

/// Number of rows in the movie table (the paper's "top rated 4000 tuples").
pub const MOVIE_ROWS: usize = 4_000;

const GENRES: [&str; 18] = [
    "drama",
    "comedy",
    "action",
    "thriller",
    "romance",
    "horror",
    "sci-fi",
    "documentary",
    "animation",
    "crime",
    "adventure",
    "fantasy",
    "mystery",
    "war",
    "western",
    "musical",
    "biography",
    "noir",
];

/// Builds the `imdb` movie table: `id, poster, title, year, director,
/// genre, plot, rating`, 4000 rows sorted by descending rating like a
/// "top rated" listing.
pub fn movies(seed: u64) -> Table {
    movies_sized(seed, MOVIE_ROWS)
}

/// [`movies`] with an explicit row count (for fast tests).
pub fn movies_sized(seed: u64, rows: usize) -> Table {
    let mut rng = SimRng::seed(seed).split("dataset/movies");
    // Ratings: a "top rated" slice is front-loaded; draw then sort desc.
    let mut ratings: Vec<f64> = (0..rows)
        .map(|_| rng.normal_clamped(7.8, 0.7, 5.0, 9.6))
        .collect();
    ratings.sort_by(|a, b| b.partial_cmp(a).expect("no NaNs"));

    let n_directors = (rows / 12).clamp(1, 400);
    let mut id = ColumnBuilder::int([]);
    let mut poster = ColumnBuilder::str(Vec::<&str>::new());
    let mut title = ColumnBuilder::str(Vec::<&str>::new());
    let mut year = ColumnBuilder::int([]);
    let mut director = ColumnBuilder::str(Vec::<&str>::new());
    let mut genre = ColumnBuilder::str(Vec::<&str>::new());
    let mut plot = ColumnBuilder::str(Vec::<&str>::new());
    let mut rating = ColumnBuilder::float([]);
    for (i, &r) in ratings.iter().enumerate() {
        id.push_int(i as i64);
        poster.push_str(&format!("https://img.example/poster/{i}.jpg"));
        title.push_str(&title_for(i, &mut rng));
        year.push_int(rng.uniform(1950.0, 2018.0) as i64);
        director.push_str(&format!("Director {}", rng.uniform_usize(0, n_directors)));
        genre.push_str(GENRES[rng.weighted_index(&zipf_weights(GENRES.len()))]);
        plot.push_str(&plot_for(i, &mut rng));
        rating.push_float((r * 10.0).round() / 10.0);
    }
    TableBuilder::new("imdb")
        .column("id", id)
        .column("poster", poster)
        .column("title", title)
        .column("year", year)
        .column("director", director)
        .column("genre", genre)
        .column("plot", plot)
        .column("rating", rating)
        .build()
        .expect("static schema is valid")
}

/// Splits the movie table into the two tables the paper's streaming-join
/// query (Q2) uses: `imdbrating(id, rating)` and
/// `movie(id, poster, title, year, director, genre, plot)`.
pub fn movie_join_tables(seed: u64, rows: usize) -> (Table, Table) {
    let full = movies_sized(seed, rows);
    let ids: Vec<i64> = full
        .column("id")
        .expect("id")
        .as_int()
        .expect("int")
        .to_vec();
    let ratings: Vec<f64> = full
        .column("rating")
        .expect("rating")
        .as_float()
        .expect("float")
        .to_vec();
    let rating_table = TableBuilder::new("imdbrating")
        .column("id", ColumnBuilder::int(ids.iter().copied()))
        .column("rating", ColumnBuilder::float(ratings))
        .build()
        .expect("static schema");

    let mut movie = TableBuilder::new("movie").column("id", ColumnBuilder::int(ids));
    for col in ["poster", "title", "director", "genre", "plot"] {
        let mut b = ColumnBuilder::str(Vec::<&str>::new());
        for row in 0..full.rows() {
            let v = full.value(row, col).expect("column exists");
            b.push_str(v.as_str().expect("string column"));
        }
        movie = movie.column(col, b);
    }
    let mut years = ColumnBuilder::int([]);
    for row in 0..full.rows() {
        years.push_int(
            full.value(row, "year")
                .expect("year")
                .as_i64()
                .expect("int"),
        );
    }
    (
        rating_table,
        movie.column("year", years).build().expect("static schema"),
    )
}

/// Builds the `dataroad` table: 3-D road-network points with the paper's
/// exact domains, clustered like real road geometry (a Gaussian mixture
/// along sinuous "roads" rather than uniform dust).
pub fn road_network(seed: u64) -> Table {
    road_network_sized(seed, road_domain::ROWS)
}

/// [`road_network_sized`] registered under an explicit table name — one
/// table per tenant in the multi-tenant serving experiments, so tenants
/// carry distinct working sets through a shared buffer pool. The content
/// still depends only on `(seed, rows)`; the name is identity, not data.
pub fn road_network_named(name: &str, seed: u64, rows: usize) -> Table {
    let base = road_network_sized(seed, rows);
    let mut b = TableBuilder::new(name);
    for col in ["x", "y", "z"] {
        let mut values = Vec::with_capacity(base.rows());
        for row in 0..base.rows() {
            values.push(
                base.value(row, col)
                    .expect("column exists")
                    .as_f64()
                    .expect("float column"),
            );
        }
        b = b.column(col, ColumnBuilder::float(values));
    }
    b.build().expect("static schema is valid")
}

/// [`road_network`] with an explicit row count (for fast tests).
pub fn road_network_sized(seed: u64, rows: usize) -> Table {
    use road_domain::*;
    let mut rng = SimRng::seed(seed).split("dataset/road");
    let clusters = 24usize;
    // Randomly placed cluster centers with Zipf-skewed popularity: road
    // density concentrates around towns, leaving sparse stretches.
    let centers: Vec<(f64, f64, f64)> = (0..clusters)
        .map(|_| {
            let x = rng.uniform(X_MIN + 0.1, X_MAX - 0.1);
            let y = rng.uniform(Y_MIN + 0.05, Y_MAX - 0.05);
            let z = rng.uniform(Z_MIN + 5.0, Z_MAX * 0.6);
            (x, y, z)
        })
        .collect();
    let weights = zipf_weights(clusters);
    let mut xs = Vec::with_capacity(rows);
    let mut ys = Vec::with_capacity(rows);
    let mut zs = Vec::with_capacity(rows);
    for _ in 0..rows {
        let (cx, cy, cz) = centers[rng.weighted_index(&weights)];
        xs.push(rng.normal_clamped(cx, 0.09, X_MIN, X_MAX));
        ys.push(rng.normal_clamped(cy, 0.06, Y_MIN, Y_MAX));
        zs.push(rng.normal_clamped(cz, 12.0, Z_MIN, Z_MAX));
    }
    TableBuilder::new("dataroad")
        .column("x", ColumnBuilder::float(xs))
        .column("y", ColumnBuilder::float(ys))
        .column("z", ColumnBuilder::float(zs))
        .build()
        .expect("static schema is valid")
}

/// Room types for the listings table.
pub const ROOM_TYPES: [&str; 3] = ["entire_home", "private_room", "shared_room"];

/// Builds the `listings` table: Airbnb-style records with geo position,
/// price, guest capacity, room type, and rating.
pub fn listings(seed: u64, rows: usize) -> Table {
    let mut rng = SimRng::seed(seed).split("dataset/listings");
    // A handful of metro clusters in a continental lat/lng box.
    let metros = 12usize;
    let centers: Vec<(f64, f64)> = (0..metros)
        .map(|_| (rng.uniform(-120.0, -75.0), rng.uniform(28.0, 46.0)))
        .collect();
    let mut id = ColumnBuilder::int([]);
    let mut lng = ColumnBuilder::float([]);
    let mut lat = ColumnBuilder::float([]);
    let mut price = ColumnBuilder::float([]);
    let mut guests = ColumnBuilder::int([]);
    let mut room = ColumnBuilder::str(Vec::<&str>::new());
    let mut rating = ColumnBuilder::float([]);
    for i in 0..rows {
        let (cx, cy) = centers[rng.uniform_usize(0, metros)];
        id.push_int(i as i64);
        lng.push_float(rng.normal(cx, 0.6));
        lat.push_float(rng.normal(cy, 0.4));
        price.push_float(rng.log_normal(4.4, 0.6).clamp(10.0, 2_000.0).round());
        guests.push_int(rng.uniform_usize(1, 9) as i64);
        room.push_str(ROOM_TYPES[rng.weighted_index(&[0.6, 0.3, 0.1])]);
        rating.push_float(rng.normal_clamped(4.5, 0.35, 2.5, 5.0));
    }
    TableBuilder::new("listings")
        .column("id", id)
        .column("lng", lng)
        .column("lat", lat)
        .column("price", price)
        .column("guests", guests)
        .column("room_type", room)
        .column("rating", rating)
        .build()
        .expect("static schema is valid")
}

fn zipf_weights(n: usize) -> Vec<f64> {
    (1..=n).map(|k| 1.0 / k as f64).collect()
}

fn title_for(i: usize, rng: &mut SimRng) -> String {
    const ADJ: [&str; 12] = [
        "Silent", "Crimson", "Last", "Hidden", "Golden", "Broken", "Distant", "Electric",
        "Midnight", "Paper", "Winter", "Burning",
    ];
    const NOUN: [&str; 12] = [
        "Horizon", "River", "Letters", "Garden", "Empire", "Signal", "Harbor", "Mirror", "Orchard",
        "Station", "Voyage", "Citadel",
    ];
    format!(
        "{} {} {}",
        ADJ[rng.uniform_usize(0, ADJ.len())],
        NOUN[rng.uniform_usize(0, NOUN.len())],
        i
    )
}

fn plot_for(i: usize, rng: &mut SimRng) -> String {
    const OPENERS: [&str; 6] = [
        "A reluctant hero",
        "Two strangers",
        "An aging detective",
        "A small town",
        "A brilliant scientist",
        "A travelling troupe",
    ];
    const TWISTS: [&str; 6] = [
        "confronts a buried secret",
        "races against time",
        "discovers an impossible truth",
        "is drawn into a conspiracy",
        "must choose between two worlds",
        "finds an unlikely ally",
    ];
    format!(
        "{} {} (story {i}).",
        OPENERS[rng.uniform_usize(0, OPENERS.len())],
        TWISTS[rng.uniform_usize(0, TWISTS.len())]
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_engine::Predicate;

    /// A numeric column's smallest and largest value.
    fn min_max(t: &Table, name: &str) -> (f64, f64) {
        let col = t.column(name).unwrap();
        let values: Vec<f64> = match (col.as_float(), col.as_int()) {
            (Some(v), _) => v.to_vec(),
            (_, Some(v)) => v.iter().map(|&i| i as f64).collect(),
            _ => panic!("{name} is not numeric"),
        };
        let fold = |(lo, hi): (f64, f64), &x: &f64| (lo.min(x), hi.max(x));
        values.iter().fold((f64::INFINITY, f64::NEG_INFINITY), fold)
    }

    #[test]
    fn movies_shape_and_determinism() {
        let a = movies_sized(7, 500);
        assert_eq!(a.rows(), 500);
        assert_eq!(a.width(), 8);
        let b = movies_sized(7, 500);
        for col in ["title", "rating", "year"] {
            for row in [0usize, 250, 499] {
                assert_eq!(a.value(row, col).unwrap(), b.value(row, col).unwrap());
            }
        }
        let c = movies_sized(8, 500);
        assert_ne!(
            a.value(0, "title").unwrap(),
            c.value(0, "title").unwrap(),
            "different seeds differ"
        );
    }

    #[test]
    fn movies_are_sorted_by_descending_rating() {
        let t = movies_sized(1, 300);
        let ratings = t.column("rating").unwrap().as_float().unwrap();
        assert!(ratings.windows(2).all(|w| w[0] >= w[1]));
        assert!(ratings[0] <= 9.6 && ratings[ratings.len() - 1] >= 5.0);
    }

    #[test]
    fn join_tables_reassemble_the_catalog() {
        let (ratings, movie) = movie_join_tables(3, 200);
        assert_eq!(ratings.rows(), 200);
        assert_eq!(movie.rows(), 200);
        assert_eq!(ratings.width(), 2);
        // Every rating id exists in the movie table.
        let movie_ids = movie.column("id").unwrap().as_int().unwrap();
        let rating_ids = ratings.column("id").unwrap().as_int().unwrap();
        assert_eq!(movie_ids, rating_ids);
    }

    #[test]
    fn road_network_respects_paper_domains() {
        let t = road_network_sized(5, 20_000);
        assert_eq!(t.rows(), 20_000);
        let (x_min, x_max) = min_max(&t, "x");
        assert!(x_min >= road_domain::X_MIN);
        assert!(x_max <= road_domain::X_MAX);
        let (y_min, y_max) = min_max(&t, "y");
        assert!(y_min >= road_domain::Y_MIN);
        assert!(y_max <= road_domain::Y_MAX);
        let (z_min, z_max) = min_max(&t, "z");
        assert!(z_min >= road_domain::Z_MIN);
        assert!(z_max <= road_domain::Z_MAX);
    }

    #[test]
    fn road_network_is_clustered_not_uniform() {
        // A range predicate over 10% of x should not select ~10% of rows
        // everywhere; clustering makes selectivity uneven across slices.
        let t = road_network_sized(5, 30_000);
        let span = road_domain::X_MAX - road_domain::X_MIN;
        let mut fractions = Vec::new();
        for i in 0..10 {
            let lo = road_domain::X_MIN + span * i as f64 / 10.0;
            let hi = lo + span / 10.0;
            let sel = Predicate::between("x", lo, hi).select(&t).unwrap().len();
            fractions.push(sel as f64 / t.rows() as f64);
        }
        let max = fractions.iter().cloned().fold(0.0, f64::max);
        let min = fractions.iter().cloned().fold(1.0, f64::min);
        assert!(max / min.max(1e-9) > 1.5, "slices: {fractions:?}");
    }

    #[test]
    fn listings_schema_and_domains() {
        let t = listings(9, 5_000);
        assert_eq!(t.rows(), 5_000);
        let (price_min, price_max) = min_max(&t, "price");
        assert!(price_min >= 10.0);
        assert!(price_max <= 2_000.0);
        let (guests_min, guests_max) = min_max(&t, "guests");
        assert!(guests_min >= 1.0 && guests_max <= 8.0);
        // Room types dictionary-encode to exactly the three variants.
        let (_, dict) = t.column("room_type").unwrap().as_str_parts().unwrap();
        assert!(dict.len() <= 3);
    }

    #[test]
    fn full_road_cardinality_constant_matches_paper() {
        assert_eq!(road_domain::ROWS, 434_874);
        assert_eq!(MOVIE_ROWS, 4_000);
    }
}
