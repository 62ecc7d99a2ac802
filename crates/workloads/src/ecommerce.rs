//! The four Java e-commerce functions (paper §6.4, Fig. 13c).
//!
//! "Purchase, advertising, report generation, and discount applying. The
//! execution time of these services varies from hundreds of milliseconds
//! (report generation) to more than one second (purchase)." Under gVisor
//! their boot contributes 34–88 % of end-to-end latency; under Catalyzer it
//! drops below 5 %.
//!
//! Purchase, Report and Discount run for real against an in-memory
//! [`Store`]; Advertisement is a calibrated profile only.

use std::collections::BTreeMap;

use runtimes::{AppProfile, RuntimeKind};
use simtime::SimNanos;

/// The four services.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EcommerceOp {
    /// Place an order (inventory + payment + ledger).
    Purchase,
    /// Pick advertisements for a user (calibrated profile only: no
    /// [`Store`] logic).
    Advertisement,
    /// Generate a sales report.
    Report,
    /// Apply a discount campaign to the catalogue.
    Discount,
}

impl EcommerceOp {
    /// All services, in Fig. 13c order.
    pub const ALL: [EcommerceOp; 4] = [
        EcommerceOp::Purchase,
        EcommerceOp::Advertisement,
        EcommerceOp::Report,
        EcommerceOp::Discount,
    ];

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            EcommerceOp::Purchase => "Purchase",
            EcommerceOp::Advertisement => "Advertisement",
            EcommerceOp::Report => "Report",
            EcommerceOp::Discount => "Discount",
        }
    }

    /// Calibrated profile: heavyweight Java services, JVM-dominated boot.
    pub fn profile(self) -> AppProfile {
        let exec_ms = match self {
            EcommerceOp::Purchase => 1_250.0,
            EcommerceOp::Advertisement => 300.0,
            EcommerceOp::Report => 380.0,
            EcommerceOp::Discount => 95.0,
        };
        let mut p = AppProfile::java_hello();
        p.name = format!("ecommerce-{}", self.label());
        p.runtime = RuntimeKind::Java;
        p.runtime_start = SimNanos::from_millis(520);
        p.load_units = 500;
        p.init_heap_pages = 16_384; // 64 MB of framework state
        p.kernel_objects = 24_000;
        p.exec_time = SimNanos::from_millis_f64(exec_ms);
        p.exec_touch_fraction = 0.2;
        p.exec_alloc_pages = 256;
        p
    }
}

/// A catalogue product.
#[derive(Debug, Clone, PartialEq)]
pub struct Product {
    /// Product id.
    pub id: u32,
    /// Price in cents.
    pub price_cents: u64,
    /// Units in stock.
    pub stock: u32,
    /// Category tag (groups the sales report and discounts).
    pub category: &'static str,
}

/// A completed order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Order {
    /// Order id.
    pub id: u64,
    /// Buyer.
    pub user: u32,
    /// Product purchased.
    pub product: u32,
    /// Quantity.
    pub quantity: u32,
    /// Total paid, cents.
    pub total_cents: u64,
}

/// Errors from the business logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Unknown product id.
    NoSuchProduct(u32),
    /// Not enough stock.
    OutOfStock {
        /// Product id.
        product: u32,
        /// Units available.
        available: u32,
    },
}

/// The in-memory product/order store backing Purchase, Report and Discount.
#[derive(Debug, Default)]
pub struct Store {
    products: BTreeMap<u32, Product>,
    orders: Vec<Order>,
    next_order: u64,
}

impl Store {
    /// An empty store.
    pub fn new() -> Store {
        Store::default()
    }

    /// A store seeded with `n` products across four categories.
    pub fn with_catalogue(n: u32) -> Store {
        let mut store = Store::new();
        let categories = ["books", "games", "garden", "kitchen"];
        for id in 0..n {
            store.products.insert(
                id,
                Product {
                    id,
                    price_cents: 500 + u64::from(id % 97) * 25,
                    stock: 10 + id % 40,
                    category: categories[id as usize % categories.len()],
                },
            );
        }
        store
    }

    /// Product lookup.
    pub fn product(&self, id: u32) -> Option<&Product> {
        self.products.get(&id)
    }

    /// Orders placed.
    pub fn orders(&self) -> &[Order] {
        &self.orders
    }

    /// **Purchase**: check stock, decrement inventory, record the order.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchProduct`] or [`StoreError::OutOfStock`].
    pub fn purchase(
        &mut self,
        user: u32,
        product: u32,
        quantity: u32,
    ) -> Result<Order, StoreError> {
        let p = self
            .products
            .get_mut(&product)
            .ok_or(StoreError::NoSuchProduct(product))?;
        if p.stock < quantity {
            return Err(StoreError::OutOfStock {
                product,
                available: p.stock,
            });
        }
        p.stock -= quantity;
        let order = Order {
            id: self.next_order,
            user,
            product,
            quantity,
            total_cents: p.price_cents * u64::from(quantity),
        };
        self.next_order += 1;
        self.orders.push(order.clone());
        Ok(order)
    }

    /// **Report**: revenue and units per category.
    pub fn sales_report(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut report: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for o in &self.orders {
            if let Some(p) = self.products.get(&o.product) {
                let entry = report.entry(p.category).or_insert((0, 0));
                entry.0 += o.total_cents;
                entry.1 += u64::from(o.quantity);
            }
        }
        report
    }

    /// **Discount**: apply `percent` off to a category; returns products
    /// touched.
    pub fn apply_discount(&mut self, category: &str, percent: u8) -> usize {
        let percent = u64::from(percent.min(90));
        let mut touched = 0;
        for p in self.products.values_mut() {
            if p.category == category {
                p.price_cents = p.price_cents * (100 - percent) / 100;
                touched += 1;
            }
        }
        touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_heavyweight_java() {
        for op in EcommerceOp::ALL {
            let p = op.profile();
            assert_eq!(p.runtime, RuntimeKind::Java);
            assert!(
                p.app_init_estimate() > SimNanos::from_millis(500),
                "{}",
                p.name
            );
        }
        assert!(EcommerceOp::Purchase.profile().exec_time > SimNanos::from_secs(1));
        assert!(EcommerceOp::Report.profile().exec_time < SimNanos::from_millis(500));
    }

    #[test]
    fn purchase_decrements_stock_and_records() {
        let mut s = Store::with_catalogue(20);
        let before = s.product(3).unwrap().stock;
        let order = s.purchase(1, 3, 2).unwrap();
        assert_eq!(s.product(3).unwrap().stock, before - 2);
        assert_eq!(order.total_cents, s.product(3).unwrap().price_cents * 2);
        assert_eq!(s.orders().len(), 1);
    }

    #[test]
    fn purchase_failures() {
        let mut s = Store::with_catalogue(5);
        assert_eq!(
            s.purchase(1, 99, 1).unwrap_err(),
            StoreError::NoSuchProduct(99)
        );
        let stock = s.product(0).unwrap().stock;
        assert!(matches!(
            s.purchase(1, 0, stock + 1).unwrap_err(),
            StoreError::OutOfStock { .. }
        ));
        assert!(s.orders().is_empty());
    }

    #[test]
    fn report_aggregates_by_category() {
        let mut s = Store::with_catalogue(8);
        s.purchase(1, 0, 1).unwrap(); // books
        s.purchase(2, 4, 2).unwrap(); // books
        s.purchase(3, 1, 1).unwrap(); // games
        let report = s.sales_report();
        assert_eq!(report["books"].1, 3);
        assert_eq!(report["games"].1, 1);
        assert!(report["books"].0 > 0);
    }

    #[test]
    fn discount_applies_to_category_only() {
        let mut s = Store::with_catalogue(8);
        let before_books = s.product(0).unwrap().price_cents;
        let before_games = s.product(1).unwrap().price_cents;
        let touched = s.apply_discount("books", 50);
        assert_eq!(touched, 2);
        assert_eq!(s.product(0).unwrap().price_cents, before_books / 2);
        assert_eq!(s.product(1).unwrap().price_cents, before_games);
        // Discount clamps at 90 %.
        s.apply_discount("games", 200);
        assert_eq!(s.product(1).unwrap().price_cents, before_games / 10);
    }
}
